//! Experiment implementations, one module per paper artifact.
//!
//! Each module exposes `run(&Scale) -> Vec<Table>`; the binaries in
//! `src/bin/` are thin wrappers that print the tables and write CSVs.

pub mod ablation;
pub mod autotune;
pub mod fig13a;
pub mod fig13bc;
pub mod fig14b;
pub mod fig15a;
pub mod fig15b;
pub mod fig16;
pub mod sec72;
pub mod table1;
pub mod table2;
pub mod table3;
