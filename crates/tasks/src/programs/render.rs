//! `render` — the intro's movie-studio scenario: "a movie production
//! company can render each scene in a movie, in parallel, using
//! smartphones" (§3.2). One scene = one atomic task; a batch of scenes
//! fans out across the fleet.
//!
//! The scene format is deliberately simple but the work is real: a scene
//! is a set of luminous discs; rendering rasterizes them with smooth
//! falloff into a grayscale frame (re-using the image container from
//! [`photoblur`](crate::PhotoBlur)).

use super::blur::encode_image;
use super::buffered::Buffered;
use super::codec::read_u32;
use cwc_types::{CwcError, CwcResult};

/// One luminous disc in a scene.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disc {
    /// Centre x (pixels).
    pub cx: u32,
    /// Centre y (pixels).
    pub cy: u32,
    /// Radius (pixels).
    pub r: u32,
    /// Peak luminance 0–255.
    pub lum: u8,
}

/// Encodes a scene: `width`, `height`, disc count (all `u32` BE) followed
/// by 13-byte disc records.
pub fn encode_scene(width: u32, height: u32, discs: &[Disc]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + discs.len() * 13);
    out.extend_from_slice(&width.to_be_bytes());
    out.extend_from_slice(&height.to_be_bytes());
    out.extend_from_slice(&(discs.len() as u32).to_be_bytes());
    for d in discs {
        out.extend_from_slice(&d.cx.to_be_bytes());
        out.extend_from_slice(&d.cy.to_be_bytes());
        out.extend_from_slice(&d.r.to_be_bytes());
        out.push(d.lum);
    }
    out
}

/// Decodes a scene blob.
pub fn decode_scene(data: &[u8]) -> CwcResult<(u32, u32, Vec<Disc>)> {
    let mut rest = data;
    let (Some(width), Some(height), Some(n)) = (
        read_u32(&mut rest),
        read_u32(&mut rest),
        read_u32(&mut rest),
    ) else {
        return Err(CwcError::Migration("scene too short for header".into()));
    };
    let expected = 12 + n as usize * 13;
    let disc = |mut d: &[u8]| {
        Some(Disc {
            cx: read_u32(&mut d)?,
            cy: read_u32(&mut d)?,
            r: read_u32(&mut d)?,
            lum: *d.first()?,
        })
    };
    match rest.chunks_exact(13).map(disc).collect() {
        Some(discs) if data.len() == expected => Ok((width, height, discs)),
        _ => Err(CwcError::Migration(format!(
            "scene payload {} bytes, header implies {expected}",
            data.len()
        ))),
    }
}

/// Rasterizes the scene into a grayscale frame with quadratic falloff.
pub fn rasterize(width: u32, height: u32, discs: &[Disc]) -> Vec<u8> {
    let mut px = vec![0u16; width as usize * height as usize];
    for d in discs {
        if d.r == 0 {
            continue;
        }
        let r = i64::from(d.r);
        let r2 = r * r;
        let (cx, cy) = (i64::from(d.cx), i64::from(d.cy));
        let y0 = (cy - r).max(0);
        let y1 = (cy + r).min(i64::from(height) - 1);
        let x0 = (cx - r).max(0);
        let x1 = (cx + r).min(i64::from(width) - 1);
        for y in y0..=y1 {
            for x in x0..=x1 {
                let d2 = (x - cx) * (x - cx) + (y - cy) * (y - cy);
                if d2 <= r2 {
                    // Quadratic falloff from the centre.
                    let falloff = ((r2 - d2) * 256 / r2) as u16; // 0..=256
                    let add = (u16::from(d.lum) * falloff) >> 8;
                    let idx = (y * i64::from(width) + x) as usize;
                    px[idx] = px[idx].saturating_add(add);
                }
            }
        }
    }
    px.into_iter().map(|v| v.min(255) as u8).collect()
}

/// The scene-render program (atomic).
pub struct SceneRender;

// Rendering is the heaviest per-KB workload: a small scene description
// explodes into per-pixel work.
task_program!(SceneRender, buffered, "render", 40.0);

/// Buffers the scene description and renders it at the end.
impl Buffered for SceneRender {
    fn transform(scene: &[u8]) -> CwcResult<Vec<u8>> {
        let (w, h, discs) = decode_scene(scene)?;
        Ok(encode_image(w, h, &rasterize(w, h, &discs)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwc_device::executor::CHUNK_BYTES;
    use cwc_device::{ExecutionOutcome, Executor};

    #[test]
    fn scene_codec_round_trip() {
        let discs = vec![
            Disc {
                cx: 5,
                cy: 5,
                r: 3,
                lum: 200,
            },
            Disc {
                cx: 20,
                cy: 8,
                r: 6,
                lum: 90,
            },
        ];
        let blob = encode_scene(32, 16, &discs);
        let (w, h, back) = decode_scene(&blob).unwrap();
        assert_eq!((w, h), (32, 16));
        assert_eq!(back, discs);
    }

    #[test]
    fn scene_codec_rejects_truncation() {
        let blob = encode_scene(
            8,
            8,
            &[Disc {
                cx: 1,
                cy: 1,
                r: 1,
                lum: 9,
            }],
        );
        assert!(decode_scene(&blob[..blob.len() - 1]).is_err());
        assert!(decode_scene(&[0, 1]).is_err());
    }

    #[test]
    fn rasterize_centre_is_brightest() {
        let px = rasterize(
            11,
            11,
            &[Disc {
                cx: 5,
                cy: 5,
                r: 4,
                lum: 240,
            }],
        );
        let centre = px[5 * 11 + 5];
        assert!(centre > 200, "centre {centre}");
        assert_eq!(px[0], 0, "far corner untouched");
        // Monotone falloff along a row.
        assert!(px[5 * 11 + 5] >= px[5 * 11 + 6]);
        assert!(px[5 * 11 + 6] >= px[5 * 11 + 7]);
    }

    #[test]
    fn overlapping_discs_saturate() {
        let discs = vec![
            Disc {
                cx: 2,
                cy: 2,
                r: 2,
                lum: 255
            };
            4
        ];
        let px = rasterize(5, 5, &discs);
        assert_eq!(px[2 * 5 + 2], 255);
    }

    #[test]
    fn executor_render_with_migration_equals_straight() {
        let scene = crate::inputs::scene_file(96, 64, 12, 5);
        let straight = match Executor.run(&SceneRender, &scene, None).unwrap() {
            ExecutionOutcome::Completed { result, .. } => result,
            other => panic!("unexpected {other:?}"),
        };
        assert!(!straight.is_empty());

        let (ck, done) = match Executor
            .run(&SceneRender, &scene, Some(cwc_types::KiloBytes::ZERO))
            .unwrap()
        {
            ExecutionOutcome::Interrupted {
                checkpoint,
                processed,
            } => (checkpoint, processed),
            other => panic!("unexpected {other:?}"),
        };
        let rest = &scene[done.0 as usize * CHUNK_BYTES..];
        match Executor
            .run_guarded(&SceneRender, rest, Some(&ck), |_| false)
            .unwrap()
        {
            ExecutionOutcome::Completed { result, .. } => assert_eq!(result, straight),
            other => panic!("unexpected {other:?}"),
        }
    }
}
