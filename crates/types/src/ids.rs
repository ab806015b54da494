//! Strongly-typed identifiers.
//!
//! Raw integers are easy to transpose (`phones[job]` compiles); newtypes make
//! that a type error. All identifiers are small, `Copy`, and ordered so they
//! can key `BTreeMap`s and sort deterministically.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw index value.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Builds an identifier from a `usize` index.
            ///
            /// # Panics
            /// Panics if `idx` does not fit in `u32` (never happens for the
            /// fleet/job counts CWC deals with).
            #[inline]
            pub fn from_index(idx: usize) -> Self {
                Self(u32::try_from(idx).expect("identifier index overflows u32"))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(v: u32) -> Self {
                Self(v)
            }
        }
    };
}

id_type!(
    /// Identifier of a smartphone registered with the central server.
    PhoneId,
    "phone-"
);

id_type!(
    /// Identifier of a job (task) submitted to the central server.
    ///
    /// The paper uses *task* and *job* interchangeably (§4, footnote 2);
    /// so do we.
    JobId,
    "job-"
);

id_type!(
    /// Identifier of a volunteer user in the charging-behavior study (§3.1).
    UserId,
    "user-"
);

id_type!(
    /// Dense index of a profiled program in the coordinator's catalogue
    /// (`cwc_core::RuntimePredictor`), in order of registration from 0.
    ProgramId,
    "program-"
);

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn display_is_prefixed() {
        assert_eq!(PhoneId(3).to_string(), "phone-3");
        assert_eq!(JobId(0).to_string(), "job-0");
        assert_eq!(UserId(14).to_string(), "user-14");
    }

    #[test]
    fn index_round_trip() {
        for idx in [0usize, 1, 17, 1000] {
            assert_eq!(PhoneId::from_index(idx).index(), idx);
        }
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        let set: BTreeSet<JobId> = (0..5).rev().map(JobId).collect();
        let sorted: Vec<u32> = set.into_iter().map(|j| j.0).collect();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }
}
