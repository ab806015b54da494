//! The task program implementations. Each program supplies only what is
//! its own; the task state is one of two shapes, each written once:
//! `streaming` for the record programs, `buffered` for the atomic ones.

/// Implements [`cwc_device::TaskProgram`] for a program by delegating to
/// its shape's core. `TaskProgram` is foreign to this crate, so a core
/// cannot implement it for every program of its shape generically.
macro_rules! task_program {
    ($program:ty, $shape:ident, $name:literal, $ms_per_kb:literal) => {
        impl cwc_device::TaskProgram for $program {
            fn name(&self) -> &str {
                $name
            }

            fn baseline_ms_per_kb(&self) -> f64 {
                $ms_per_kb
            }

            fn new_state(&self) -> Box<dyn cwc_device::TaskState> {
                $crate::programs::$shape::new_state(self)
            }

            fn restore_state(
                &self,
                checkpoint: &[u8],
            ) -> cwc_types::CwcResult<Box<dyn cwc_device::TaskState>> {
                $crate::programs::$shape::restore_state(self, checkpoint)
            }

            fn aggregate(&self, partials: &[Vec<u8>]) -> cwc_types::CwcResult<Vec<u8>> {
                $crate::programs::$shape::aggregate(self, partials)
            }
        }
    };
}

pub mod blur;
mod buffered;
pub mod largest;
pub mod logscan;
pub mod primes;
pub mod render;
mod streaming;
pub mod wordcount;

pub(crate) mod codec {
    //! The big-endian byte formats: the streaming checkpoint
    //! `u64 accumulator | u32 tail-length | tail`, the 8-byte `u64`
    //! partial, and the `u32` fields of the image and scene headers.

    use cwc_types::{CwcError, CwcResult};

    /// Reads a big-endian `u32` off the front of `bytes`, advancing it.
    pub fn read_u32(bytes: &mut &[u8]) -> Option<u32> {
        let (head, rest) = bytes.split_first_chunk()?;
        *bytes = rest;
        Some(u32::from_be_bytes(*head))
    }

    pub fn encode_u64_tail(value: u64, tail: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + tail.len());
        out.extend_from_slice(&value.to_be_bytes());
        out.extend_from_slice(&(tail.len() as u32).to_be_bytes());
        out.extend_from_slice(tail);
        out
    }

    pub fn decode_u64_tail(bytes: &[u8]) -> CwcResult<(u64, Vec<u8>)> {
        let too_short = || CwcError::Migration("checkpoint too short".into());
        let (value, mut tail) = bytes.split_first_chunk::<8>().ok_or_else(too_short)?;
        let tail_len = read_u32(&mut tail).ok_or_else(too_short)? as usize;
        if tail.len() != tail_len {
            return Err(CwcError::Migration(format!(
                "checkpoint length mismatch: declared tail {tail_len}, have {}",
                tail.len()
            )));
        }
        Ok((u64::from_be_bytes(*value), tail.to_vec()))
    }

    /// Decodes a streaming program's 8-byte partial result.
    pub fn decode_partial(partial: &[u8]) -> CwcResult<u64> {
        let bytes = partial
            .try_into()
            .map_err(|_| CwcError::Migration("bad u64 partial".into()))?;
        Ok(u64::from_be_bytes(bytes))
    }

    /// Merges 8-byte partials into one, starting from 0.
    pub fn fold_partials(partials: &[Vec<u8>], merge: fn(u64, u64) -> u64) -> CwcResult<Vec<u8>> {
        let mut acc = 0u64;
        for p in partials {
            acc = merge(acc, decode_partial(p)?);
        }
        Ok(acc.to_be_bytes().to_vec())
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn u64_tail_round_trip() {
            let enc = encode_u64_tail(42, b"leftover");
            let (v, tail) = decode_u64_tail(&enc).unwrap();
            assert_eq!(v, 42);
            assert_eq!(tail, b"leftover");
        }

        #[test]
        fn u64_tail_rejects_short_and_mismatched() {
            assert!(decode_u64_tail(&[1, 2, 3]).is_err());
            let mut enc = encode_u64_tail(1, b"xy");
            enc.push(0); // extra byte not covered by declared length
            assert!(decode_u64_tail(&enc).is_err());
        }

        #[test]
        fn partial_folds() {
            let a = 10u64.to_be_bytes().to_vec();
            let b = 7u64.to_be_bytes().to_vec();
            assert_eq!(
                fold_partials(&[a.clone(), b.clone()], u64::wrapping_add).unwrap(),
                17u64.to_be_bytes()
            );
            assert_eq!(
                fold_partials(&[a, b], u64::max).unwrap(),
                10u64.to_be_bytes()
            );
        }
    }
}
