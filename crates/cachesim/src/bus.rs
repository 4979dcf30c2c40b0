//! The shared memory bus.
//!
//! All fills — demand misses, helper-thread prefetches, hardware
//! prefetches — contend for one bus that can *start* a new line transfer
//! every `service` cycles. This is the mechanism behind the paper's
//! "wastes precious bandwidth" effect: prefetch traffic queues behind (and
//! ahead of) demand traffic, so over-aggressive prefetching delays the
//! main thread's own misses.

use crate::clock::Cycle;

/// A single shared bus with FIFO queueing.
#[derive(Debug, Clone)]
pub struct Bus {
    service: Cycle,
    next_free: Cycle,
    busy_cycles: Cycle,
    requests: u64,
    queued: u64,
}

impl Bus {
    /// A bus that can start one transfer every `service` cycles.
    pub fn new(service: Cycle) -> Self {
        assert!(service > 0, "bus service time must be positive");
        Bus {
            service,
            next_free: 0,
            busy_cycles: 0,
            requests: 0,
            queued: 0,
        }
    }

    /// Forget all traffic, as if freshly constructed (the service time is
    /// part of the configuration and survives).
    pub fn reset(&mut self) {
        self.next_free = 0;
        self.busy_cycles = 0;
        self.requests = 0;
        self.queued = 0;
    }

    /// Issue a transfer request at `now`; returns the cycle at which the
    /// transfer *starts* (equal to `now` if the bus is idle).
    pub fn request(&mut self, now: Cycle) -> Cycle {
        self.requests += 1;
        let start = now.max(self.next_free);
        if start > now {
            self.queued += 1;
        }
        // Saturating: the final drain installs fills at `Cycle::MAX`, and
        // a dirty victim's write-back then requests the bus there.
        self.next_free = start.saturating_add(self.service);
        self.busy_cycles += self.service;
        start
    }

    /// Cycle at which the bus next becomes free.
    pub fn next_free(&self) -> Cycle {
        self.next_free
    }

    /// Total cycles of bus occupancy so far.
    pub fn busy_cycles(&self) -> Cycle {
        self.busy_cycles
    }

    /// Total transfer requests so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Requests that had to wait for an earlier transfer.
    pub fn queued(&self) -> u64 {
        self.queued
    }

    /// Bus utilization over `elapsed` cycles (clamped to 1.0).
    pub fn utilization(&self, elapsed: Cycle) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            (self.busy_cycles as f64 / elapsed as f64).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_bus_grants_immediately() {
        let mut b = Bus::new(16);
        assert_eq!(b.request(100), 100);
        assert_eq!(b.next_free(), 116);
        assert_eq!(b.queued(), 0);
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut b = Bus::new(16);
        assert_eq!(b.request(0), 0);
        assert_eq!(b.request(0), 16);
        assert_eq!(b.request(0), 32);
        assert_eq!(b.queued(), 2);
        assert_eq!(b.requests(), 3);
        assert_eq!(b.busy_cycles(), 48);
    }

    #[test]
    fn spaced_requests_do_not_queue() {
        let mut b = Bus::new(10);
        assert_eq!(b.request(0), 0);
        assert_eq!(b.request(50), 50);
        assert_eq!(b.queued(), 0);
    }

    #[test]
    fn utilization_is_bounded() {
        let mut b = Bus::new(10);
        b.request(0);
        b.request(0);
        assert!((b.utilization(40) - 0.5).abs() < 1e-12);
        assert_eq!(b.utilization(0), 0.0);
        assert_eq!(b.utilization(1), 1.0); // clamped
    }

    #[test]
    fn reset_clears_all_traffic_counters() {
        let mut b = Bus::new(16);
        b.request(0);
        b.request(0);
        b.reset();
        assert_eq!(b.requests(), 0);
        assert_eq!(b.queued(), 0);
        assert_eq!(b.busy_cycles(), 0);
        assert_eq!(b.request(0), 0, "bus is idle again");
    }

    #[test]
    fn a_request_at_the_end_of_time_saturates() {
        let mut b = Bus::new(16);
        assert_eq!(b.request(Cycle::MAX), Cycle::MAX);
        assert_eq!(b.next_free(), Cycle::MAX);
        assert_eq!(b.request(Cycle::MAX), Cycle::MAX);
        assert_eq!(b.busy_cycles(), 32);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_service_rejected() {
        let _ = Bus::new(0);
    }
}
