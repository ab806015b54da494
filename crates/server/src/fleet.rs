//! Fleet construction — the paper's 18-phone testbed (§6).
//!
//! Topology: 18 phones across three houses. Two houses run 802.11g WiFi
//! in a crowded 2.4 GHz band; the third has a clean 802.11a AP. In each
//! house, 2 phones associate with WiFi and 4 use cellular radios ranging
//! from EDGE to 4G. CPU clocks span 806 MHz (HTC G2) to 1.5 GHz.

use cwc_device::{BatteryParams, CpuModel, Phone, PhoneSpec, PHONE_MODELS};
use cwc_net::link::{LinkConfig, LinkModel};
use cwc_sim::{Distributions, RngStreams};
use cwc_types::{CpuSpec, PhoneId, RadioTech};

/// Configurable fleet builder.
#[derive(Debug, Clone)]
pub struct FleetBuilder {
    seed: u64,
    houses: usize,
    phones_per_house: usize,
    wifi_per_house: usize,
    /// Fraction of phones whose true speed beats the clock prediction
    /// (the Fig. 6 outliers; the paper observed "a few").
    fast_outlier_prob: f64,
}

impl Default for FleetBuilder {
    fn default() -> Self {
        FleetBuilder {
            seed: 0,
            houses: 3,
            phones_per_house: 6,
            wifi_per_house: 2,
            fast_outlier_prob: 0.15,
        }
    }
}

impl FleetBuilder {
    /// Starts from the paper's topology with the given seed.
    pub fn new(seed: u64) -> Self {
        FleetBuilder {
            seed,
            ..Default::default()
        }
    }

    /// Overrides the number of houses.
    pub fn houses(mut self, n: usize) -> Self {
        assert!(n > 0);
        self.houses = n;
        self
    }

    /// Overrides phones per house.
    pub fn phones_per_house(mut self, n: usize) -> Self {
        assert!(n > 0);
        self.phones_per_house = n;
        self
    }

    /// Overrides the fast-outlier probability.
    pub fn fast_outlier_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.fast_outlier_prob = p;
        self
    }

    /// Total fleet size.
    pub fn size(&self) -> usize {
        self.houses * self.phones_per_house
    }

    /// Builds the fleet. Deterministic per seed.
    pub fn build(&self) -> Vec<Phone> {
        let streams = RngStreams::new(self.seed);
        let mut assign_rng = streams.stream("fleet/assign");
        let cellular = [
            RadioTech::Edge,
            RadioTech::ThreeG,
            RadioTech::FourG,
            RadioTech::ThreeG,
        ];
        let mut phones = Vec::with_capacity(self.size());
        for house in 0..self.houses {
            // House 2 (0-indexed) has the interference-free 802.11a AP.
            let wifi = if house == 2 {
                RadioTech::Wifi80211a
            } else {
                RadioTech::Wifi80211g
            };
            for slot in 0..self.phones_per_house {
                let idx = house * self.phones_per_house + slot;
                let id = PhoneId::from_index(idx);
                let radio = if slot < self.wifi_per_house {
                    wifi
                } else {
                    cellular[(slot - self.wifi_per_house) % cellular.len()]
                };
                let (model, clock, cores) = PHONE_MODELS[idx % PHONE_MODELS.len()];
                // Ground-truth efficiency: mostly ≈1, a few phones
                // meaningfully faster than their clock suggests.
                let efficiency = if assign_rng.chance(self.fast_outlier_prob) {
                    assign_rng.gen_range(0.72..0.88)
                } else {
                    assign_rng.normal_clamped(1.0, 0.03, 0.92, 1.08)
                };
                let battery = if model == "HTC G2" {
                    BatteryParams::htc_g2()
                } else {
                    BatteryParams::htc_sensation()
                };
                let spec = PhoneSpec {
                    id,
                    model: model.to_owned(),
                    cpu: CpuModel::with_efficiency(CpuSpec::new(clock, cores), efficiency),
                    radio,
                    ram_kb: 1 << 20, // 1 GB, §4's "enough for most jobs"
                    battery,
                };
                let link = LinkModel::new(
                    LinkConfig::typical(radio),
                    streams.indexed_stream("fleet/link", idx),
                );
                let initial_charge = assign_rng.gen_range(20.0..80.0);
                phones.push(Phone::new(spec, link, initial_charge));
            }
        }
        phones
    }
}

/// The paper's testbed: 18 phones, 3 houses, mixed radios and clocks.
pub fn testbed_fleet(seed: u64) -> Vec<Phone> {
    FleetBuilder::new(seed).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_testbed_is_18_phones() {
        let fleet = testbed_fleet(1);
        assert_eq!(fleet.len(), 18);
    }

    #[test]
    fn radio_mix_matches_paper() {
        let fleet = testbed_fleet(1);
        let wifi = fleet.iter().filter(|p| p.spec().radio.is_wifi()).count();
        assert_eq!(wifi, 6, "2 WiFi phones per house x 3 houses");
        // Third house is 802.11a.
        assert!(fleet[12..18]
            .iter()
            .filter(|p| p.spec().radio.is_wifi())
            .all(|p| p.spec().radio == RadioTech::Wifi80211a));
        // Cellular variety present.
        assert!(fleet.iter().any(|p| p.spec().radio == RadioTech::Edge));
        assert!(fleet.iter().any(|p| p.spec().radio == RadioTech::FourG));
    }

    #[test]
    fn clock_span_matches_testbed() {
        let fleet = testbed_fleet(1);
        let clocks: Vec<u32> = fleet.iter().map(|p| p.spec().cpu.spec.clock_mhz).collect();
        assert_eq!(*clocks.iter().min().unwrap(), 806);
        assert_eq!(*clocks.iter().max().unwrap(), 1500);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = testbed_fleet(7);
        let b = testbed_fleet(7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.spec().model, y.spec().model);
            assert_eq!(x.spec().cpu.efficiency, y.spec().cpu.efficiency);
            assert_eq!(x.spec().radio, y.spec().radio);
        }
    }

    #[test]
    fn some_efficiency_outliers_exist() {
        let fleet = testbed_fleet(43);
        let fast = fleet
            .iter()
            .filter(|p| p.spec().cpu.efficiency < 0.9)
            .count();
        assert!(fast >= 1, "expected at least one fast outlier");
        assert!(fast <= 9, "outliers should be the minority, got {fast}");
    }

    #[test]
    fn builder_knobs_apply() {
        let fleet = FleetBuilder::new(3).houses(2).phones_per_house(4).build();
        assert_eq!(fleet.len(), 8);
    }
}
