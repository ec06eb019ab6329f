//! # dabench
//!
//! The DABench-LLM reproduction, in one crate: re-exports of the framework
//! ([`core`]), the workload model ([`model`], [`graph`]) and the four
//! platform models ([`wse`], [`rdu`], [`ipu`], [`gpu`]), plus
//! [`experiments`] — drivers that regenerate **every table and figure** of
//! the paper's evaluation, and [`render`] for printing them in the paper's
//! row/series layout.
//!
//! # Quickstart
//!
//! ```
//! use dabench::experiments::table1;
//!
//! // Reproduce Table I (WSE-2 PE allocation vs. decoder layers).
//! let rows = table1::run();
//! println!("{}", table1::render(&rows));
//! assert!(rows.iter().any(|r| r.allocation_pct.is_none())); // the 78-layer Fail
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_suite;
pub mod experiments;
pub mod flags;
pub mod render;
pub mod runner;
pub mod serve;
pub mod suite;

use std::io::{self, BufWriter, Write as _};

/// Bytes of the buffer each stdout block is written through.
const STDOUT_BUFFER: usize = 64 * 1024;

/// Write one block of stdout through one buffer and flush it, so the
/// block is out before whatever the caller writes to stderr next. Every
/// `dabench` command writes its stdout through here. Stdout is locked only
/// while the block is written.
///
/// # Errors
///
/// `stdout: <error>` when a write or the flush fails, for instance once
/// the reader has closed the pipe: an error the command returns, not a
/// panic. The explicit flush is what reports it, since dropping a
/// `BufWriter` discards its error.
pub fn write_stdout(
    block: impl FnOnce(&mut BufWriter<io::StdoutLock<'static>>) -> io::Result<()>,
) -> Result<(), String> {
    let mut out = BufWriter::with_capacity(STDOUT_BUFFER, io::stdout().lock());
    block(&mut out)
        .and_then(|()| out.flush())
        .map_err(|e| format!("stdout: {e}"))
}

/// Re-export of the framework core (`dabench-core`).
pub mod core {
    pub use dabench_core::*;
}

/// Re-export of the workload model (`dabench-model`).
pub mod model {
    pub use dabench_model::*;
}

/// Re-export of the dataflow graph IR (`dabench-graph`).
pub mod graph {
    pub use dabench_graph::*;
}

/// Re-export of the closed-form pipeline timing model (`dabench-sim`).
pub mod sim {
    pub use dabench_sim::*;
}

/// Re-export of the Cerebras WSE-2 model (`dabench-wse`).
pub mod wse {
    pub use dabench_wse::*;
}

/// Re-export of the SambaNova RDU model (`dabench-rdu`).
pub mod rdu {
    pub use dabench_rdu::*;
}

/// Re-export of the Graphcore IPU model (`dabench-ipu`).
pub mod ipu {
    pub use dabench_ipu::*;
}

/// Re-export of the GPU reference baseline (`dabench-gpu`).
pub mod gpu {
    pub use dabench_gpu::*;
}

/// Re-export of fault-injection planning and resilience sweeps
/// (`dabench-faults`).
pub mod faults {
    pub use dabench_faults::*;
}
