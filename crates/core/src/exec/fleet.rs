//! The device fleet: heterogeneous simulated accelerators with per-device
//! speed factors, job slots, and exact busy/idle accounting.
//!
//! Accounting is integral: every device accrues `in_use · Δt` busy
//! slot-time and `(slots − in_use) · Δt` idle slot-time at each of its own
//! transitions, so after a final sweep to the makespan the conservation law
//! `Σ busy + Σ idle == capacity × makespan` holds exactly (up to float
//! summation), for any mix of speeds and slot counts.

/// Static description of one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSpec {
    /// Relative throughput: a run of cost `c` occupies the device for
    /// `c / speed` simulated time units. `1.0` matches the clock of the
    /// simulator ([`crate::sim::simulate`]) exactly.
    pub speed: f64,
    /// Concurrent job slots (≥ 1). A multi-GPU node is a device with
    /// several slots at one speed.
    pub slots: usize,
}

impl DeviceSpec {
    /// A unit-speed, single-slot device — the simulator's pooled
    /// device.
    pub fn unit() -> Self {
        DeviceSpec {
            speed: 1.0,
            slots: 1,
        }
    }

    /// A single-slot device with the given speed factor.
    ///
    /// # Panics
    ///
    /// Panics unless `speed` is finite and strictly positive.
    pub fn with_speed(speed: f64) -> Self {
        assert!(
            speed.is_finite() && speed > 0.0,
            "device speed must be finite and positive"
        );
        DeviceSpec { speed, slots: 1 }
    }
}

/// Runtime state of one device.
#[derive(Debug, Clone)]
pub(crate) struct Device {
    pub(crate) spec: DeviceSpec,
    /// Occupied slots.
    pub(crate) in_use: usize,
    /// Accrued busy slot-time.
    pub(crate) busy: f64,
    /// Accrued idle slot-time.
    pub(crate) idle: f64,
    /// Simulated time of the last accounting update.
    pub(crate) last_t: f64,
    /// When the device last became fully idle (all slots free).
    pub(crate) idle_since: f64,
}

impl Device {
    fn new(spec: DeviceSpec) -> Self {
        Device {
            spec,
            in_use: 0,
            busy: 0.0,
            idle: 0.0,
            last_t: 0.0,
            idle_since: 0.0,
        }
    }

    /// Accrues busy/idle slot-time up to `t` (no-op when time stands still).
    fn advance(&mut self, t: f64) {
        let dt = t - self.last_t;
        debug_assert!(dt >= -1e-12, "device clock ran backwards: {dt}");
        if dt > 0.0 {
            self.busy += self.in_use as f64 * dt;
            self.idle += (self.spec.slots - self.in_use) as f64 * dt;
            self.last_t = t;
        }
    }
}

/// The fleet of devices the dispatcher places runs on.
///
/// # Examples
///
/// ```
/// use easeml::exec::{DeviceSpec, Fleet};
///
/// let mut fleet = Fleet::new(vec![DeviceSpec::unit(), DeviceSpec::with_speed(2.0)]);
/// // The faster device wins placement.
/// assert_eq!(fleet.best_free(), Some(1));
/// fleet.occupy(1, 0.0);
/// assert_eq!(fleet.best_free(), Some(0));
/// ```
#[derive(Debug, Clone)]
pub struct Fleet {
    pub(crate) devices: Vec<Device>,
}

impl Fleet {
    /// Builds a fleet from explicit specs.
    ///
    /// # Panics
    ///
    /// Panics on an empty fleet, a non-positive/non-finite speed, or a
    /// zero-slot device.
    pub fn new(specs: Vec<DeviceSpec>) -> Self {
        assert!(!specs.is_empty(), "a fleet needs at least one device");
        for spec in &specs {
            assert!(
                spec.speed.is_finite() && spec.speed > 0.0,
                "device speed must be finite and positive"
            );
            assert!(spec.slots > 0, "a device needs at least one slot");
        }
        Fleet {
            devices: specs.into_iter().map(Device::new).collect(),
        }
    }

    /// `d` identical unit-speed, single-slot devices.
    ///
    /// # Panics
    ///
    /// Panics when `d` is zero.
    pub fn uniform(d: usize) -> Self {
        Fleet::new(vec![DeviceSpec::unit(); d])
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the fleet is empty (never true for a constructed fleet).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Total job slots across all devices — the capacity in the
    /// conservation law `Σ busy + Σ idle == capacity × makespan`.
    pub fn capacity(&self) -> usize {
        self.devices.iter().map(|d| d.spec.slots).sum()
    }

    /// The specs the fleet was built from.
    pub fn specs(&self) -> Vec<DeviceSpec> {
        self.devices.iter().map(|d| d.spec).collect()
    }

    /// Speed factor of device `d`.
    pub fn speed(&self, d: usize) -> f64 {
        self.devices[d].spec.speed
    }

    /// Occupied slots of device `d`.
    pub fn in_use(&self, d: usize) -> usize {
        self.devices[d].in_use
    }

    /// The device a new run should go to: among devices with a free slot,
    /// the fastest one, ties toward the lower index. `None` when the fleet
    /// is saturated.
    pub fn best_free(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, dev) in self.devices.iter().enumerate() {
            if dev.in_use >= dev.spec.slots {
                continue;
            }
            match best {
                Some(b) if self.devices[b].spec.speed >= dev.spec.speed => {}
                _ => best = Some(i),
            }
        }
        best
    }

    /// Takes one slot of device `d` at time `now`, returning the length of
    /// the fully-idle gap that just ended (`None` when the device was
    /// already partly busy or the gap is zero) — the queueing-delay sample
    /// behind [`Event::DeviceIdle`](easeml_obs::Event::DeviceIdle).
    ///
    /// # Panics
    ///
    /// Panics when the device has no free slot.
    pub fn occupy(&mut self, d: usize, now: f64) -> Option<f64> {
        let dev = &mut self.devices[d];
        assert!(dev.in_use < dev.spec.slots, "device {d} has no free slot");
        dev.advance(now);
        let gap = if dev.in_use == 0 && now > dev.idle_since {
            Some(now - dev.idle_since)
        } else {
            None
        };
        dev.in_use += 1;
        gap
    }

    /// Releases one slot of device `d` at time `now`.
    ///
    /// # Panics
    ///
    /// Panics when the device has no occupied slot.
    pub fn release(&mut self, d: usize, now: f64) {
        let dev = &mut self.devices[d];
        assert!(dev.in_use > 0, "device {d} has no run to release");
        dev.advance(now);
        dev.in_use -= 1;
        if dev.in_use == 0 {
            dev.idle_since = now;
        }
    }

    /// Sweeps every device's accounting forward to `t` (the makespan).
    pub fn advance_all(&mut self, t: f64) {
        for dev in &mut self.devices {
            dev.advance(t);
        }
    }

    /// Per-device accrued busy slot-time.
    pub fn busy(&self) -> Vec<f64> {
        self.devices.iter().map(|d| d.busy).collect()
    }

    /// Per-device accrued idle slot-time.
    pub fn idle(&self) -> Vec<f64> {
        self.devices.iter().map(|d| d.idle).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_free_prefers_speed_then_low_index() {
        let mut fleet = Fleet::new(vec![
            DeviceSpec::with_speed(1.0),
            DeviceSpec::with_speed(2.0),
            DeviceSpec::with_speed(2.0),
        ]);
        assert_eq!(fleet.best_free(), Some(1), "fastest wins, low index ties");
        fleet.occupy(1, 0.0);
        assert_eq!(fleet.best_free(), Some(2));
        fleet.occupy(2, 0.0);
        assert_eq!(fleet.best_free(), Some(0));
        fleet.occupy(0, 0.0);
        assert_eq!(fleet.best_free(), None, "saturated");
    }

    #[test]
    fn accounting_conserves_slot_time() {
        let mut fleet = Fleet::new(vec![
            DeviceSpec::unit(),
            DeviceSpec {
                speed: 2.0,
                slots: 2,
            },
        ]);
        fleet.occupy(1, 0.0);
        fleet.occupy(1, 0.5);
        fleet.release(1, 2.0);
        fleet.occupy(0, 2.0);
        fleet.release(0, 5.0);
        fleet.release(1, 4.0);
        fleet.advance_all(5.0);
        let busy: f64 = fleet.busy().iter().sum();
        let idle: f64 = fleet.idle().iter().sum();
        let capacity = fleet.capacity() as f64;
        assert!(
            (busy + idle - capacity * 5.0).abs() < 1e-12,
            "{busy} {idle}"
        );
        // Device 1: slot-busy = (0.5 − 0) · 1 + (2 − 0.5) · 2 + (4 − 2) · 1.
        assert!((fleet.busy()[1] - (0.5 + 3.0 + 2.0)).abs() < 1e-12);
    }

    #[test]
    fn idle_gap_is_reported_when_a_cold_device_wakes() {
        let mut fleet = Fleet::uniform(1);
        assert_eq!(fleet.occupy(0, 0.0), None, "no gap at t = 0");
        fleet.release(0, 2.0);
        let gap = fleet.occupy(0, 3.5).expect("idle gap");
        assert!((gap - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no free slot")]
    fn over_occupying_panics() {
        let mut fleet = Fleet::uniform(1);
        fleet.occupy(0, 0.0);
        fleet.occupy(0, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_fleet_panics() {
        let _ = Fleet::new(Vec::new());
    }
}
