//! Deterministic synthetic input generation for every workload.
//!
//! The paper's central server partitions real input files; these builders
//! are the reproduction's file store. Everything is seeded, so any
//! experiment can regenerate byte-identical inputs.

use crate::programs::render::{encode_scene, Disc};
use cwc_sim::{Distributions, SplitMix64};

/// A file of newline-separated integers (for `primecount`/`largestint`),
/// roughly `kb` KB long.
pub fn number_file(kb: usize, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x6e756d66696c65);
    let mut out = Vec::with_capacity(kb * 1024);
    while out.len() < kb * 1024 {
        let n: u32 = rng.gen_range(1..1_000_000);
        out.extend_from_slice(n.to_string().as_bytes());
        out.push(b'\n');
    }
    out.truncate(kb * 1024);
    // End on a clean line so the truncated final number is not garbage.
    if let Some(pos) = out.iter().rposition(|&b| b == b'\n') {
        out.truncate(pos + 1);
    }
    out
}

/// A prose-like text file with the target `word` planted at ~1 occurrence
/// per 100 words (for `wordcount`).
pub fn text_file(kb: usize, seed: u64, word: &str) -> Vec<u8> {
    const FILLER: [&str; 12] = [
        "sales", "report", "store", "total", "item", "qty", "region", "daily", "order", "stock",
        "price", "audit",
    ];
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x74657874);
    let mut out = Vec::with_capacity(kb * 1024);
    while out.len() < kb * 1024 {
        let w = if rng.gen_ratio(1, 100) {
            word
        } else {
            FILLER[rng.gen_range(0..FILLER.len())]
        };
        out.extend_from_slice(w.as_bytes());
        out.push(if rng.gen_ratio(1, 12) { b'\n' } else { b' ' });
    }
    out.truncate(kb * 1024);
    out
}

/// A grayscale photo with smooth gradients plus noise (for `photoblur`).
pub fn image_file(width: u32, height: u32, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x696d616765);
    let mut px = Vec::with_capacity(width as usize * height as usize);
    for y in 0..height {
        for x in 0..width {
            let base = ((x * 255 / width.max(1)) + (y * 255 / height.max(1))) / 2;
            let noise: i16 = rng.gen_range(-24..=24);
            px.push((base as i16 + noise).clamp(0, 255) as u8);
        }
    }
    crate::programs::blur::encode_image(width, height, &px)
}

/// A machine log with ~2% ERROR and ~0.5% FATAL lines (for `logscan`).
pub fn log_file(kb: usize, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x6c6f67);
    let mut out = Vec::with_capacity(kb * 1024);
    let mut ts = 1_700_000_000u64;
    while out.len() < kb * 1024 {
        ts += rng.gen_range(1..30u64);
        let sev = match rng.gen_range(0..200u32) {
            0..=3 => "ERROR",
            4 => "FATAL",
            5..=30 => "WARN",
            _ => "INFO",
        };
        let line = format!(
            "{ts} {sev} service={} code={}\n",
            rng.gen_range(0..16),
            rng.gen_range(0..4096)
        );
        out.extend_from_slice(line.as_bytes());
    }
    out.truncate(kb * 1024);
    if let Some(pos) = out.iter().rposition(|&b| b == b'\n') {
        out.truncate(pos + 1);
    }
    out
}

/// A render scene with `discs` random luminous discs (for `render`).
pub fn scene_file(width: u32, height: u32, discs: usize, seed: u64) -> Vec<u8> {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x7363656e65);
    let list: Vec<Disc> = (0..discs)
        .map(|_| Disc {
            cx: rng.gen_range(0..width),
            cy: rng.gen_range(0..height),
            r: rng.gen_range(2..(width.min(height) / 3).max(3)),
            lum: rng.gen_range(60..=255),
        })
        .collect();
    encode_scene(width, height, &list)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_file_is_parseable_and_sized() {
        let f = number_file(4, 1);
        assert!(f.len() > 3 * 1024 && f.len() <= 4 * 1024);
        for line in f.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            let text = std::str::from_utf8(line).unwrap();
            text.parse::<u64>().expect("every line is an integer");
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(number_file(2, 7), number_file(2, 7));
        assert_eq!(text_file(2, 7, "x"), text_file(2, 7, "x"));
        assert_eq!(image_file(32, 32, 7), image_file(32, 32, 7));
        assert_eq!(log_file(2, 7), log_file(2, 7));
        assert_eq!(scene_file(64, 64, 5, 7), scene_file(64, 64, 5, 7));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(number_file(2, 1), number_file(2, 2));
        assert_ne!(log_file(2, 1), log_file(2, 2));
    }

    #[test]
    fn text_file_contains_planted_word() {
        let f = text_file(8, 3, "lowes");
        let hits = f.windows(5).filter(|w| w == b"lowes").count();
        assert!(hits > 5, "expected planted occurrences, got {hits}");
    }

    #[test]
    fn image_file_decodes() {
        let img = image_file(40, 30, 9);
        let (w, h, px) = crate::programs::blur::decode_image(&img).unwrap();
        assert_eq!((w, h), (40, 30));
        assert_eq!(px.len(), 1200);
    }

    #[test]
    fn log_file_has_failures_and_noise() {
        let f = log_file(16, 4);
        let text = String::from_utf8(f).unwrap();
        assert!(text.lines().any(|l| l.contains(" ERROR ")));
        assert!(text.lines().any(|l| l.contains(" INFO ")));
    }

    #[test]
    fn scene_file_decodes_with_right_disc_count() {
        let s = scene_file(100, 80, 7, 2);
        let (w, h, discs) = crate::programs::render::decode_scene(&s).unwrap();
        assert_eq!((w, h), (100, 80));
        assert_eq!(discs.len(), 7);
    }
}
