//! The composite phone: spec + link + battery + plug state.
//!
//! A [`Phone`] is the unit the fleet simulator manages. It bundles the
//! ground-truth models (CPU efficiency, link fading, battery) behind the
//! same observable surface the paper's server sees: registration info, a
//! bandwidth measurement, task completion times, and plug/unplug events.

use crate::battery::{BatteryModel, BatteryParams};
use crate::cpu::CpuModel;
use cwc_net::link::LinkModel;
use cwc_net::measure::mean_kb_per_sec;
use cwc_types::{KiloBytes, Micros, MsPerKb, PhoneId, PhoneInfo, RadioTech};

/// Charging-connection state (the three states the profiling app logs,
/// §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlugState {
    /// On the charger — eligible for CWC work.
    Plugged,
    /// Detached from the charger — any running task is interrupted and
    /// migrated; the paper treats this as a node failure.
    Unplugged,
    /// Powered off (rare: 3% of the study's log entries).
    Shutdown,
}

impl PlugState {
    /// Whether CWC may execute tasks in this state.
    pub fn can_compute(self) -> bool {
        matches!(self, PlugState::Plugged)
    }
}

/// Static description of a phone in the fleet.
#[derive(Debug, Clone)]
pub struct PhoneSpec {
    /// Fleet identity.
    pub id: PhoneId,
    /// Human-readable handset model.
    pub model: String,
    /// CPU ground truth (advertised spec + efficiency residual).
    pub cpu: CpuModel,
    /// Radio technology.
    pub radio: RadioTech,
    /// Usable RAM in KB.
    pub ram_kb: u64,
    /// Battery/charger character.
    pub battery: BatteryParams,
}

/// Handset models in the paper's testbed era, with typical clocks/cores.
/// The testbed spans 806 MHz to 1.5 GHz (§6).
pub const PHONE_MODELS: [(&str, u32, u32); 8] = [
    ("HTC G2", 806, 1),
    ("Nexus S", 1000, 1),
    ("LG Optimus 2X", 1000, 2),
    ("Motorola Atrix", 1000, 2),
    ("HTC Sensation", 1200, 2),
    ("Samsung Galaxy S2", 1200, 2),
    ("Galaxy Nexus", 1200, 2),
    ("HTC Rezound", 1500, 2),
];

/// A live phone: models plus mutable state.
#[derive(Debug, Clone)]
pub struct Phone {
    spec: PhoneSpec,
    link: LinkModel,
    battery: BatteryModel,
    plug: PlugState,
}

impl Phone {
    /// Creates a plugged-in phone with the given initial charge.
    pub fn new(spec: PhoneSpec, link: LinkModel, initial_charge_pct: f64) -> Self {
        let battery = BatteryModel::new(spec.battery, initial_charge_pct);
        Phone {
            spec,
            link,
            battery,
            plug: PlugState::Plugged,
        }
    }

    /// Fleet identity.
    pub fn id(&self) -> PhoneId {
        self.spec.id
    }

    /// Static spec.
    pub fn spec(&self) -> &PhoneSpec {
        &self.spec
    }

    /// Current plug state.
    pub fn plug_state(&self) -> PlugState {
        self.plug
    }

    /// Applies a plug-state transition (driven by user behavior or
    /// failure injection).
    pub fn set_plug_state(&mut self, state: PlugState) {
        self.plug = state;
    }

    /// Battery state (read-only).
    pub fn battery(&self) -> &BatteryModel {
        &self.battery
    }

    /// Advances the battery while plugged.
    pub fn charge_step(&mut self, dt: Micros, cpu_util: f64) {
        if self.plug == PlugState::Plugged {
            self.battery.step(dt, cpu_util);
        }
    }

    /// Ground-truth time to receive `size` from the server starting now.
    pub fn transfer_time(&mut self, now: Micros, size: KiloBytes) -> Micros {
        self.link.transfer_time(now, size)
    }

    /// Runs the short iperf-style bandwidth test CWC performs before
    /// scheduling and returns the measured `b_i`.
    pub fn measure_bandwidth(&mut self, now: Micros) -> MsPerKb {
        // A brief session is enough on a stationary link (Fig. 4): 10
        // one-second samples.
        MsPerKb::from_kb_per_sec(mean_kb_per_sec(
            &mut self.link,
            now,
            Micros::from_secs(10),
            Micros::from_secs(1),
        ))
    }

    /// Ground-truth execution time for `input` KB of a task profiled at
    /// `baseline` on the 806 MHz phone. Includes this phone's
    /// efficiency residual — the quantity the phone *reports* back to the
    /// server after completing a task.
    pub fn exec_time(&self, baseline: MsPerKb, input: KiloBytes) -> Micros {
        self.spec.cpu.exec_time(baseline, input)
    }

    /// The registration + measurement snapshot the scheduler consumes.
    pub fn info(&mut self, now: Micros) -> PhoneInfo {
        PhoneInfo {
            id: self.spec.id,
            cpu: self.spec.cpu.spec,
            radio: self.spec.radio,
            bandwidth: self.measure_bandwidth(now),
            ram_kb: self.spec.ram_kb,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwc_net::link::LinkConfig;
    use cwc_sim::RngStreams;
    use cwc_types::CpuSpec;

    fn phone(clock: u32, radio: RadioTech) -> Phone {
        let spec = PhoneSpec {
            id: PhoneId(1),
            model: "HTC Sensation".into(),
            cpu: CpuModel::ideal(CpuSpec::new(clock, 2)),
            radio,
            ram_kb: 1 << 20,
            battery: BatteryParams::htc_sensation(),
        };
        let link = LinkModel::new(
            LinkConfig::typical(radio),
            RngStreams::new(9).stream("phone-test"),
        );
        Phone::new(spec, link, 50.0)
    }

    #[test]
    fn plug_state_gates_compute() {
        assert!(PlugState::Plugged.can_compute());
        assert!(!PlugState::Unplugged.can_compute());
        assert!(!PlugState::Shutdown.can_compute());
    }

    #[test]
    fn new_phone_is_plugged() {
        let p = phone(1200, RadioTech::Wifi80211g);
        assert_eq!(p.plug_state(), PlugState::Plugged);
    }

    #[test]
    fn unplug_transition() {
        let mut p = phone(1200, RadioTech::Wifi80211g);
        p.set_plug_state(PlugState::Unplugged);
        assert!(!p.plug_state().can_compute());
    }

    #[test]
    fn charging_only_happens_while_plugged() {
        let mut p = phone(1200, RadioTech::Wifi80211g);
        let before = p.battery().charge_pct();
        p.set_plug_state(PlugState::Unplugged);
        p.charge_step(Micros::from_mins(10), 0.0);
        assert_eq!(p.battery().charge_pct(), before);
        p.set_plug_state(PlugState::Plugged);
        p.charge_step(Micros::from_mins(10), 0.0);
        assert!(p.battery().charge_pct() > before);
    }

    #[test]
    fn measured_bandwidth_tracks_radio_class() {
        let mut wifi = phone(1200, RadioTech::Wifi80211a);
        let mut edge = phone(1200, RadioTech::Edge);
        let b_wifi = wifi.measure_bandwidth(Micros::from_secs(100)).0;
        let b_edge = edge.measure_bandwidth(Micros::from_secs(100)).0;
        assert!(
            b_wifi < b_edge,
            "WiFi b_i ({b_wifi}) must beat EDGE b_i ({b_edge})"
        );
        assert!(b_wifi > 0.5 && b_wifi < 2.5, "wifi b_i {b_wifi}");
        assert!(b_edge > 40.0 && b_edge < 100.0, "edge b_i {b_edge}");
    }

    #[test]
    fn exec_time_scales_with_clock() {
        let slow = phone(806, RadioTech::Wifi80211g);
        let fast = phone(1612, RadioTech::Wifi80211g);
        let kb = KiloBytes(100);
        let t_slow = slow.exec_time(MsPerKb(10.0), kb);
        let t_fast = fast.exec_time(MsPerKb(10.0), kb);
        assert_eq!(t_slow.0, 2 * t_fast.0);
    }

    #[test]
    fn info_snapshot_reflects_spec() {
        let mut p = phone(1200, RadioTech::ThreeG);
        let info = p.info(Micros::from_secs(60));
        assert_eq!(info.id, PhoneId(1));
        assert_eq!(info.cpu.clock_mhz, 1200);
        assert_eq!(info.radio, RadioTech::ThreeG);
        assert!(info.bandwidth.is_valid());
    }

    #[test]
    fn model_catalog_spans_testbed_clocks() {
        let clocks: Vec<u32> = PHONE_MODELS.iter().map(|&(_, c, _)| c).collect();
        assert_eq!(*clocks.iter().min().unwrap(), 806);
        assert_eq!(*clocks.iter().max().unwrap(), 1500);
    }
}
