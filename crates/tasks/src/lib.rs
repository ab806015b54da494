//! # cwc-tasks — reference workloads
//!
//! The concrete task programs used throughout the paper's evaluation plus
//! the enterprise scenarios its introduction motivates. Each is a real
//! computation (not a timing stub) implementing
//! [`cwc_device::TaskProgram`], so executor, migration, and aggregation
//! tests run against genuine state:
//!
//! | program      | paper role                              | kind      | state shape                          |
//! |--------------|-----------------------------------------|-----------|--------------------------------------|
//! | `primecount` | eval task 1: count primes in a file     | breakable | streaming: lines, sum, 64 B tail cap |
//! | `wordcount`  | eval task 2: count a word's occurrences | breakable | streaming: windows, sum              |
//! | `photoblur`  | eval task 3: blur a photo               | atomic    | buffered: box blur                   |
//! | `largestint` | §3.1 feasibility experiment (Fig. 5)    | breakable | streaming: lines, max                |
//! | `logscan`    | intro scenario: IT failure-log analysis | breakable | streaming: lines, sum                |
//! | `render`     | intro scenario: movie scene rendering   | atomic    | buffered: rasterize                  |
//!
//! Each shape is written once in `programs`. A *streaming* state is a
//! `u64` accumulator plus the straddled tail of a record cut by a chunk
//! boundary; it checkpoints as `u64 BE acc | u32 BE tail length | tail`
//! and reports an 8-byte BE partial that `aggregate` sums or maxes. A
//! *buffered* state is the whole input so far; it checkpoints as the raw
//! buffer, transforms it at the end, and aggregates exactly one partial.
//!
//! [`inputs`] synthesizes deterministic input files for all of them, and
//! [`standard_registry`] installs everything into a device-side
//! `TaskRegistry` — the fleet's "preloaded
//! executables".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod inputs;
pub mod programs;

pub use programs::blur::PhotoBlur;
pub use programs::largest::LargestInt;
pub use programs::logscan::LogScan;
pub use programs::primes::PrimeCount;
pub use programs::render::SceneRender;
pub use programs::wordcount::WordCount;

use cwc_device::TaskRegistry;
use std::sync::Arc;

/// Builds a registry with every reference program installed under its
/// canonical name.
pub fn standard_registry() -> TaskRegistry {
    let mut reg = TaskRegistry::new();
    reg.register(Arc::new(PrimeCount));
    reg.register(Arc::new(WordCount::new("lowes")));
    reg.register(Arc::new(PhotoBlur));
    reg.register(Arc::new(LargestInt));
    reg.register(Arc::new(LogScan));
    reg.register(Arc::new(SceneRender));
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_programs() {
        let reg = standard_registry();
        for name in [
            "primecount",
            "wordcount",
            "photoblur",
            "largestint",
            "logscan",
            "render",
        ] {
            assert!(reg.contains(name), "missing {name}");
        }
        assert_eq!(reg.names().len(), 6);
    }
}
