//! # fibcube-bench
//!
//! The benchmark harness: criterion benches (`benches/`) measuring the
//! reproduction's computational instruments, and table regenerators
//! (`src/bin/`) that reprint every table and figure of the paper next to
//! freshly computed values:
//!
//! | binary | paper item |
//! |---|---|
//! | `table1` | Table 1 (+ the four explicit computer checks) |
//! | `figures` | Figure 1 (`Q_4(101)`) and Figure 2 (`Γ_5` vs `Q_4(110)`), with DOT output |
//! | `series` | equations (1)–(6), Propositions 6.2/6.3, the `Γ_{d+1}` identities |
//! | `series_isometry` | the Section 3–4 series theorems swept over parameters |
//! | `properties` | Propositions 6.1 and 6.4 |
//! | `dimension_tables` | Section 7 (`idim`/`dim_f`) and Section 8 (Winkler example) |
//! | `conjecture` | Conjecture 8.1 evidence |
//! | `network_tables` | the `[ICPP93]` interconnection evaluation (E-N1…E-N6) |
//!
//! Run any of them with `cargo run --release -p fibcube-bench --bin <name>`.

use core::fmt;

/// Prints a ruled header line for the table regenerators.
pub fn header(title: &str) {
    println!("\n== {title} ==\n");
}

/// Typed failures of the benchmark gates — each carries the topology and
/// the measured figures, so a red CI run names the offending network and
/// by how much it missed instead of a bare `assert!` line number.
#[derive(Clone, Debug, PartialEq)]
pub enum BenchError {
    /// A fixed-load run left packets in flight at the cycle cap.
    Undrained {
        /// Topology display name.
        topology: String,
        /// Node count.
        nodes: usize,
        /// Packets delivered before the cap.
        delivered: usize,
        /// Packets offered.
        offered: usize,
    },
    /// The arena engine and the seed reference engine disagreed on an
    /// exact counter for the identical packet stream.
    EngineMismatch {
        /// Topology display name.
        topology: String,
        /// Which counter split (`"delivered"`, `"total_hops"`, …).
        field: &'static str,
        /// The arena engine's value.
        engine: u64,
        /// The seed reference engine's value.
        reference: u64,
    },
    /// The engine-speedup acceptance bar was missed after re-measurement.
    SpeedupBelowBar {
        /// Worst cube-pair speedup observed.
        min_speedup: f64,
        /// The acceptance bar.
        bar: f64,
    },
    /// The sharded parallel engine diverged from the serial run at some
    /// thread count — a determinism bug, never a tolerance issue.
    ThreadCountMismatch {
        /// Topology display name.
        topology: String,
        /// The thread count whose run diverged from serial.
        threads: usize,
    },
    /// The fixed-load parallel speedup bar was missed on a host with
    /// enough cores for the bar to be meaningful.
    ParallelSpeedupBelowBar {
        /// The thread count the bar applies to.
        threads: usize,
        /// Measured speedup over the serial run.
        speedup: f64,
        /// The acceptance bar.
        bar: f64,
    },
    /// The engine refused a run the benchmark configured — a bug in the
    /// benchmark's configuration, reported instead of a panic.
    Engine(fibcube_network::ExperimentError),
    /// A scale-ladder rung needed more per-node routing state than the
    /// implicit-routing budget allows.
    RoutingStateOverBudget {
        /// Topology display name.
        topology: String,
        /// Node count.
        nodes: usize,
        /// Measured routing state per node.
        bytes_per_node: f64,
        /// The per-node budget.
        budget: f64,
    },
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Undrained {
                topology,
                nodes,
                delivered,
                offered,
            } => write!(
                f,
                "{topology} ({nodes} nodes): fixed load did not drain — \
                 {delivered}/{offered} delivered at the cycle cap"
            ),
            BenchError::EngineMismatch {
                topology,
                field,
                engine,
                reference,
            } => write!(
                f,
                "{topology}: engines disagree on {field} — arena {engine} vs seed {reference}"
            ),
            BenchError::SpeedupBelowBar { min_speedup, bar } => write!(
                f,
                "acceptance: arena engine must beat the seed engine ≥ {bar}× \
                 on the cube pair (got {min_speedup:.1}×)"
            ),
            BenchError::ThreadCountMismatch { topology, threads } => write!(
                f,
                "{topology}: sharded engine at {threads} threads diverged from \
                 the serial run — SimStats must be bit-identical at any thread count"
            ),
            BenchError::ParallelSpeedupBelowBar {
                threads,
                speedup,
                bar,
            } => write!(
                f,
                "acceptance: sharded engine must reach ≥ {bar}× over serial at \
                 {threads} threads on this host (got {speedup:.2}×)"
            ),
            BenchError::Engine(e) => write!(f, "engine run refused: {e}"),
            BenchError::RoutingStateOverBudget {
                topology,
                nodes,
                bytes_per_node,
                budget,
            } => write!(
                f,
                "{topology} ({nodes} nodes): implicit routing state is \
                 {bytes_per_node:.2} bytes/node, over the {budget} byte/node budget"
            ),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<fibcube_network::ExperimentError> for BenchError {
    fn from(e: fibcube_network::ExperimentError) -> BenchError {
        BenchError::Engine(e)
    }
}

/// Formats a boolean as the paper's ↪ / ↪̸ notation.
pub fn embeds(b: bool) -> &'static str {
    if b {
        "↪"
    } else {
        "↪̸"
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn embeds_symbols() {
        assert_eq!(super::embeds(true), "↪");
        assert_eq!(super::embeds(false), "↪̸");
    }

    #[test]
    fn bench_errors_carry_their_context() {
        let e = super::BenchError::Undrained {
            topology: "Γ_16".into(),
            nodes: 2584,
            delivered: 4999,
            offered: 5000,
        };
        let msg = e.to_string();
        assert!(msg.contains("Γ_16"), "{msg}");
        assert!(msg.contains("4999/5000"), "{msg}");

        let e = super::BenchError::RoutingStateOverBudget {
            topology: "Γ_30".into(),
            nodes: 2_178_309,
            bytes_per_node: 96.0,
            budget: 64.0,
        };
        let msg = e.to_string();
        assert!(msg.contains("96.00 bytes/node"), "{msg}");
        assert!(msg.contains("64 byte/node budget"), "{msg}");
    }
}
