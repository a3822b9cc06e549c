//! Simulated time and per-phase time breakdowns.
//!
//! All elapsed times produced by the simulator are [`SimTime`] values
//! (internally nanoseconds as `f64`).  Experiments aggregate them into a
//! [`PhaseBreakdown`] whose rows mirror the stacked-bar charts of the paper
//! (Figures 3, 15 and 19): data transfer, merge, partition, build, probe and
//! data copy.

use crate::device::DeviceKind;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A simulated duration.
///
/// Stored as nanoseconds in `f64`; the paper reports times between a few
/// nanoseconds (per-tuple unit costs, Figure 4) and tens of seconds
/// (out-of-core joins, Figure 19), which comfortably fits the 52-bit mantissa.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// The zero duration.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a duration from nanoseconds.
    #[inline]
    pub fn from_ns(ns: f64) -> Self {
        debug_assert!(ns.is_finite(), "SimTime must be finite, got {ns}");
        SimTime(ns.max(0.0))
    }

    /// Creates a duration from microseconds.
    #[inline]
    pub fn from_us(us: f64) -> Self {
        Self::from_ns(us * 1e3)
    }

    /// Creates a duration from milliseconds.
    #[inline]
    pub fn from_ms(ms: f64) -> Self {
        Self::from_ns(ms * 1e6)
    }

    /// Creates a duration from seconds.
    #[inline]
    pub fn from_secs(s: f64) -> Self {
        Self::from_ns(s * 1e9)
    }

    /// The duration in nanoseconds.
    #[inline]
    pub fn as_ns(self) -> f64 {
        self.0
    }

    /// The duration in milliseconds.
    #[inline]
    pub fn as_ms(self) -> f64 {
        self.0 / 1e6
    }

    /// The duration in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0 / 1e9
    }

    /// Returns the larger of two durations.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two durations.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Saturating subtraction: never goes below zero.
    ///
    /// Used by the pipeline-delay equations (Eqs. 4 and 5 of the paper) where
    /// a negative delay means "no stall".
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime((self.0 - other.0).max(0.0))
    }

    /// True when the duration is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Mul<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: f64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: f64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1e9 {
            write!(f, "{:.3} s", ns / 1e9)
        } else if ns >= 1e6 {
            write!(f, "{:.3} ms", ns / 1e6)
        } else if ns >= 1e3 {
            write!(f, "{:.3} us", ns / 1e3)
        } else {
            write!(f, "{:.3} ns", ns)
        }
    }
}

/// One simulated event clock per device, for greedy dispatch of independent
/// work units (chunks, morsels, partition pairs) onto whichever device
/// becomes idle first.
///
/// This is the event-clock interpretation of a task schedule: the same
/// stream of tasks that a native backend executes on real threads is
/// *replayed* here by advancing per-device clocks with model-predicted
/// times, and the schedule's elapsed time is the later of the two clocks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceClocks {
    cpu: SimTime,
    gpu: SimTime,
}

impl DeviceClocks {
    /// Both clocks at zero.
    pub fn new() -> Self {
        DeviceClocks::default()
    }

    /// The device that becomes idle first (ties go to the CPU, matching the
    /// paper's greedy chunk scheduler).
    pub fn idlest(&self) -> DeviceKind {
        if self.cpu <= self.gpu {
            DeviceKind::Cpu
        } else {
            DeviceKind::Gpu
        }
    }

    /// Advances one device's clock by `time`.
    pub fn advance(&mut self, kind: DeviceKind, time: SimTime) {
        match kind {
            DeviceKind::Cpu => self.cpu += time,
            DeviceKind::Gpu => self.gpu += time,
        }
    }

    /// One device's accumulated busy time.
    pub fn busy(&self, kind: DeviceKind) -> SimTime {
        match kind {
            DeviceKind::Cpu => self.cpu,
            DeviceKind::Gpu => self.gpu,
        }
    }

    /// Elapsed time of the schedule so far: the later of the two clocks.
    pub fn elapsed(&self) -> SimTime {
        self.cpu.max(self.gpu)
    }
}

/// The phases into which a co-processed hash join decomposes its elapsed
/// time, matching the stacked bars of Figures 3, 15 and 19.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// PCI-e transfer time (discrete topology only).
    DataTransfer,
    /// Merging per-device partial results (separate hash tables on the
    /// discrete topology, or when explicitly configured).
    Merge,
    /// Radix partitioning passes of the partitioned hash join.
    Partition,
    /// The build phase (steps `b1..b4`).
    Build,
    /// The probe phase (steps `p1..p4`).
    Probe,
    /// Copying data in and out of the zero-copy buffer for out-of-core joins
    /// (Figure 19).
    DataCopy,
    /// Disk run-file I/O of the out-of-memory spill path (distinct from
    /// [`Phase::DataCopy`], which models PCIe/zero-copy transfer).
    SpillIo,
}

impl Phase {
    /// All phases in presentation order.
    pub const ALL: [Phase; 7] = [
        Phase::DataTransfer,
        Phase::Merge,
        Phase::Partition,
        Phase::Build,
        Phase::Probe,
        Phase::DataCopy,
        Phase::SpillIo,
    ];

    /// A short lower-case label, used in CSV output.
    pub fn label(self) -> &'static str {
        match self {
            Phase::DataTransfer => "data-transfer",
            Phase::Merge => "merge",
            Phase::Partition => "partition",
            Phase::Build => "build",
            Phase::Probe => "probe",
            Phase::DataCopy => "data-copy",
            Phase::SpillIo => "spill-io",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Elapsed time split per [`Phase`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseBreakdown {
    times: [f64; 7],
}

impl PhaseBreakdown {
    /// Creates an empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    fn idx(phase: Phase) -> usize {
        match phase {
            Phase::DataTransfer => 0,
            Phase::Merge => 1,
            Phase::Partition => 2,
            Phase::Build => 3,
            Phase::Probe => 4,
            Phase::DataCopy => 5,
            Phase::SpillIo => 6,
        }
    }

    /// Adds `time` to `phase`.
    pub fn add(&mut self, phase: Phase, time: SimTime) {
        self.times[Self::idx(phase)] += time.as_ns();
    }

    /// The accumulated time for `phase`.
    pub fn get(&self, phase: Phase) -> SimTime {
        SimTime::from_ns(self.times[Self::idx(phase)])
    }

    /// The total elapsed time across all phases.
    pub fn total(&self) -> SimTime {
        SimTime::from_ns(self.times.iter().sum())
    }

    /// Merges another breakdown into this one (phase-wise sum).
    pub fn merge(&mut self, other: &PhaseBreakdown) {
        for (a, b) in self.times.iter_mut().zip(other.times.iter()) {
            *a += b;
        }
    }

    /// Iterates over `(phase, time)` pairs with non-zero time, in
    /// presentation order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, SimTime)> + '_ {
        Phase::ALL
            .iter()
            .copied()
            .map(move |p| (p, self.get(p)))
            .filter(|(_, t)| !t.is_zero())
    }

    /// Renders the breakdown as a single CSV row fragment
    /// (`transfer,merge,partition,build,probe,copy,spill-io` in seconds).
    pub fn csv_row(&self) -> String {
        Phase::ALL
            .iter()
            .map(|p| format!("{:.6}", self.get(*p).as_secs()))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// The CSV header matching [`Self::csv_row`].
    pub fn csv_header() -> String {
        Phase::ALL
            .iter()
            .map(|p| p.label().to_string())
            .collect::<Vec<_>>()
            .join(",")
    }
}

impl fmt::Display for PhaseBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (phase, time) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{phase}: {time}")?;
            first = false;
        }
        write!(f, " (total {})", self.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_conversions_round_trip() {
        let t = SimTime::from_secs(1.5);
        assert!((t.as_ms() - 1500.0).abs() < 1e-9);
        assert!((t.as_ns() - 1.5e9).abs() < 1e-3);
        assert!((SimTime::from_ms(2.0).as_secs() - 0.002).abs() < 1e-12);
        assert!((SimTime::from_us(3.0).as_ns() - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn simtime_arithmetic() {
        let a = SimTime::from_ns(100.0);
        let b = SimTime::from_ns(40.0);
        assert_eq!((a + b).as_ns(), 140.0);
        assert_eq!((a - b).as_ns(), 60.0);
        assert_eq!((a * 2.0).as_ns(), 200.0);
        assert_eq!((a / 4.0).as_ns(), 25.0);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.saturating_sub(b).as_ns(), 60.0);
    }

    #[test]
    fn simtime_negative_input_clamps_to_zero() {
        assert_eq!(SimTime::from_ns(-5.0), SimTime::ZERO);
    }

    #[test]
    fn simtime_sum_of_iterator() {
        let total: SimTime = (1..=4).map(|i| SimTime::from_ns(i as f64)).sum();
        assert_eq!(total.as_ns(), 10.0);
    }

    #[test]
    fn simtime_display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_ns(12.0)), "12.000 ns");
        assert_eq!(format!("{}", SimTime::from_us(12.0)), "12.000 us");
        assert_eq!(format!("{}", SimTime::from_ms(12.0)), "12.000 ms");
        assert_eq!(format!("{}", SimTime::from_secs(12.0)), "12.000 s");
    }

    #[test]
    fn breakdown_accumulates_and_totals() {
        let mut b = PhaseBreakdown::new();
        b.add(Phase::Build, SimTime::from_ms(10.0));
        b.add(Phase::Build, SimTime::from_ms(5.0));
        b.add(Phase::Probe, SimTime::from_ms(20.0));
        assert_eq!(b.get(Phase::Build).as_ms(), 15.0);
        assert_eq!(b.get(Phase::Probe).as_ms(), 20.0);
        assert_eq!(b.get(Phase::Partition), SimTime::ZERO);
        assert!((b.total().as_ms() - 35.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_merge_sums_phasewise() {
        let mut a = PhaseBreakdown::new();
        a.add(Phase::Partition, SimTime::from_ms(1.0));
        let mut b = PhaseBreakdown::new();
        b.add(Phase::Partition, SimTime::from_ms(2.0));
        b.add(Phase::Merge, SimTime::from_ms(3.0));
        a.merge(&b);
        assert_eq!(a.get(Phase::Partition).as_ms(), 3.0);
        assert_eq!(a.get(Phase::Merge).as_ms(), 3.0);
    }

    #[test]
    fn breakdown_iter_skips_zero_phases() {
        let mut b = PhaseBreakdown::new();
        b.add(Phase::Probe, SimTime::from_ns(1.0));
        let phases: Vec<_> = b.iter().map(|(p, _)| p).collect();
        assert_eq!(phases, vec![Phase::Probe]);
    }

    #[test]
    fn breakdown_csv_shapes_match() {
        let header = PhaseBreakdown::csv_header();
        let row = PhaseBreakdown::new().csv_row();
        assert_eq!(header.split(',').count(), row.split(',').count());
    }
}
