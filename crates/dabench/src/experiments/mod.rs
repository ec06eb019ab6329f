//! Experiment drivers: one module per table and figure of the paper's
//! evaluation (Secs. V and VI).
//!
//! Every module exposes `run()` returning typed rows and `render()`
//! producing the paper-shaped text table; the CLI and `dabench bench` call
//! exactly these entry points through [`crate::suite`]. See DESIGN.md for
//! the experiment index and EXPERIMENTS.md for paper-vs-measured numbers.

pub mod ablations;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod gen;
pub mod infer;
pub mod sensitivity;
pub mod summary;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod validation;
pub mod workloads;
