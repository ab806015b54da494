//! `photoblur` — evaluation task 3: blur a photo (§6).
//!
//! The paper's canonical *atomic* task: each blurred pixel depends on its
//! neighbours, so the photo cannot be split across phones (§4's task
//! model). The prototype had to pre-process images into pixel text files
//! because Android's Dalvik lacks `BufferedImage`; we keep the same spirit
//! with a minimal raw format: an 8-byte header (`width`, `height` as
//! `u32` BE) followed by row-major 8-bit grayscale pixels.

use super::buffered::Buffered;
use super::codec::read_u32;
use cwc_types::{CwcError, CwcResult};

/// The photo-blur program (3×3 box blur).
pub struct PhotoBlur;

/// Encodes an image into the wire format.
pub fn encode_image(width: u32, height: u32, pixels: &[u8]) -> Vec<u8> {
    assert_eq!(
        pixels.len(),
        width as usize * height as usize,
        "pixel count must match dimensions"
    );
    let mut out = Vec::with_capacity(8 + pixels.len());
    out.extend_from_slice(&width.to_be_bytes());
    out.extend_from_slice(&height.to_be_bytes());
    out.extend_from_slice(pixels);
    out
}

/// Decodes the wire format into `(width, height, pixels)`.
pub fn decode_image(data: &[u8]) -> CwcResult<(u32, u32, &[u8])> {
    let mut pixels = data;
    let (Some(width), Some(height)) = (read_u32(&mut pixels), read_u32(&mut pixels)) else {
        return Err(CwcError::Migration("image too short for header".into()));
    };
    let expected = width as usize * height as usize;
    if pixels.len() != expected {
        return Err(CwcError::Migration(format!(
            "image payload {} bytes, header implies {expected}",
            pixels.len()
        )));
    }
    Ok((width, height, pixels))
}

/// 3×3 box blur with edge clamping — the neighbourhood dependency that
/// makes this task atomic.
pub fn box_blur(width: u32, height: u32, pixels: &[u8]) -> Vec<u8> {
    let w = width as i64;
    let h = height as i64;
    let mut out = vec![0u8; pixels.len()];
    for y in 0..h {
        for x in 0..w {
            let mut sum = 0u32;
            let mut n = 0u32;
            for dy in -1..=1i64 {
                for dx in -1..=1i64 {
                    let (nx, ny) = (x + dx, y + dy);
                    if nx >= 0 && nx < w && ny >= 0 && ny < h {
                        sum += u32::from(pixels[(ny * w + nx) as usize]);
                        n += 1;
                    }
                }
            }
            out[(y * w + x) as usize] = (sum / n) as u8;
        }
    }
    out
}

// Pixel-neighbourhood arithmetic: moderately CPU-bound.
task_program!(PhotoBlur, buffered, "photoblur", 9.0);

/// Buffers the full image (the dependency structure demands it) and blurs
/// it at the end.
impl Buffered for PhotoBlur {
    fn transform(image: &[u8]) -> CwcResult<Vec<u8>> {
        let (w, h, px) = decode_image(image)?;
        Ok(encode_image(w, h, &box_blur(w, h, px)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwc_device::executor::CHUNK_BYTES;
    use cwc_device::{ExecutionOutcome, Executor, TaskProgram};

    #[test]
    fn image_codec_round_trip() {
        let img = encode_image(3, 2, &[1, 2, 3, 4, 5, 6]);
        let (w, h, px) = decode_image(&img).unwrap();
        assert_eq!((w, h), (3, 2));
        assert_eq!(px, &[1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn image_codec_rejects_bad_lengths() {
        assert!(decode_image(&[0, 0]).is_err());
        let mut img = encode_image(2, 2, &[1, 2, 3, 4]);
        img.pop();
        assert!(decode_image(&img).is_err());
    }

    #[test]
    fn uniform_image_blurs_to_itself() {
        let px = vec![100u8; 16];
        assert_eq!(box_blur(4, 4, &px), px);
    }

    #[test]
    fn single_bright_pixel_spreads() {
        // 3x3 black image with a bright centre: the centre averages down,
        // corners average up.
        let mut px = vec![0u8; 9];
        px[4] = 90;
        let out = box_blur(3, 3, &px);
        assert_eq!(out[4], 10); // 90 / 9
        assert_eq!(out[0], 22); // 90 / 4 (corner sees 4 pixels)
        assert_eq!(out[1], 15); // 90 / 6 (edge sees 6)
    }

    #[test]
    fn blur_depends_on_neighbours_across_rows() {
        // This is *why* the task is atomic: splitting rows changes output.
        let top_half = box_blur(3, 1, &[10, 20, 30]);
        let full = box_blur(3, 2, &[10, 20, 30, 40, 50, 60]);
        assert_ne!(top_half[..3], full[..3]);
    }

    #[test]
    fn executor_blur_end_to_end_with_migration() {
        let img = crate::inputs::image_file(64, 48, 3);
        let (w, h, px) = decode_image(&img).unwrap();
        let expected = encode_image(w, h, &box_blur(w, h, px));

        // Straight run.
        let straight = match Executor.run(&PhotoBlur, &img, None).unwrap() {
            ExecutionOutcome::Completed { result, .. } => result,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(straight, expected);

        // Interrupted at 1 KB and resumed — identical output.
        let (ck, done) = match Executor
            .run(&PhotoBlur, &img, Some(cwc_types::KiloBytes(1)))
            .unwrap()
        {
            ExecutionOutcome::Interrupted {
                checkpoint,
                processed,
            } => (checkpoint, processed),
            other => panic!("unexpected {other:?}"),
        };
        let rest = &img[done.0 as usize * CHUNK_BYTES..];
        match Executor
            .run_guarded(&PhotoBlur, rest, Some(&ck), |_| false)
            .unwrap()
        {
            ExecutionOutcome::Completed { result, .. } => assert_eq!(result, expected),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn aggregate_requires_single_partial() {
        assert!(PhotoBlur.aggregate(&[vec![1], vec![2]]).is_err());
        assert_eq!(PhotoBlur.aggregate(&[vec![9]]).unwrap(), vec![9]);
    }

    #[test]
    fn incomplete_image_yields_empty_result() {
        let mut s = PhotoBlur.new_state();
        s.process_chunk(&[0, 0, 0, 9]).unwrap();
        assert!(s.partial_result().is_empty());
    }
}
