//! Simulation-wide measurement collection.

use crate::event::Event;
use crate::time::Ps;

/// One periodic sample of a buffer partition (paper Fig. 11 time
/// series), borrowing its per-queue columns from the [`SampleLog`].
#[derive(Debug, Clone, Copy)]
pub struct QueueSample<'a> {
    /// Sample time.
    pub t: Ps,
    /// Switch sampled.
    pub switch: usize,
    /// Partition sampled.
    pub partition: usize,
    /// Per-queue byte lengths.
    pub qlens: &'a [u64],
    /// Per-queue admission thresholds `T(t)`.
    pub thresholds: &'a [u64],
}

#[derive(Debug, Clone, Copy)]
struct SampleMeta {
    t: Ps,
    switch: u32,
    partition: u32,
    offset: usize,
    queues: usize,
}

/// Append-only store of periodic queue samples.
///
/// Columns are flattened into two shared arrays instead of two fresh
/// `Vec`s per sample tick — the sampler was one of the few remaining
/// per-event allocation sites in the hot loop. Read back through
/// [`SampleLog::iter`] / [`SampleLog::get`], which reconstruct per-sample
/// [`QueueSample`] views.
#[derive(Debug, Clone, Default)]
pub struct SampleLog {
    meta: Vec<SampleMeta>,
    qlens: Vec<u64>,
    thresholds: Vec<u64>,
}

impl SampleLog {
    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Appends one sample at time `t`. Both iterators must yield one
    /// item per queue, in queue order, and agree in length (checked by
    /// a debug assertion).
    pub fn record(
        &mut self,
        t: Ps,
        switch: usize,
        partition: usize,
        qlens: impl IntoIterator<Item = u64>,
        thresholds: impl IntoIterator<Item = u64>,
    ) {
        let offset = self.qlens.len();
        self.qlens.extend(qlens);
        self.thresholds.extend(thresholds);
        debug_assert_eq!(self.thresholds.len(), self.qlens.len());
        self.meta.push(SampleMeta {
            t,
            switch: switch as u32,
            partition: partition as u32,
            offset,
            queues: self.qlens.len() - offset,
        });
    }

    /// The `i`-th sample.
    pub fn get(&self, i: usize) -> QueueSample<'_> {
        let m = self.meta[i];
        QueueSample {
            t: m.t,
            switch: m.switch as usize,
            partition: m.partition as usize,
            qlens: &self.qlens[m.offset..m.offset + m.queues],
            thresholds: &self.thresholds[m.offset..m.offset + m.queues],
        }
    }

    /// Iterates over all samples in recording order.
    pub fn iter(&self) -> impl Iterator<Item = QueueSample<'_>> {
        (0..self.meta.len()).map(|i| self.get(i))
    }
}

/// Aggregate drop/expulsion counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct DropCounters {
    /// Arrivals tail-dropped because the queue exceeded its threshold.
    pub threshold_drops: u64,
    /// Arrivals tail-dropped because the buffer was full.
    pub full_drops: u64,
    /// Packets expelled by Occamy's reactive head drop.
    pub head_drops: u64,
    /// Packets evicted synchronously by Pushout.
    pub pushout_evictions: u64,
}

impl DropCounters {
    /// All tail drops (arrivals refused).
    pub fn tail_drops(&self) -> u64 {
        self.threshold_drops + self.full_drops
    }

    /// All packets removed from the buffer without transmission.
    pub fn total_losses(&self) -> u64 {
        self.tail_drops() + self.head_drops + self.pushout_evictions
    }
}

/// Per-raw-source (CBR) delivery accounting, for loss-rate experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct CbrCounters {
    /// Packets emitted by the source.
    pub sent_pkts: u64,
    /// Bytes emitted by the source.
    pub sent_bytes: u64,
    /// Packets delivered to the destination host.
    pub rcvd_pkts: u64,
    /// Bytes delivered to the destination host.
    pub rcvd_bytes: u64,
}

impl CbrCounters {
    /// Fraction of emitted packets lost in the network.
    pub fn loss_rate(&self) -> f64 {
        if self.sent_pkts == 0 {
            0.0
        } else {
            1.0 - self.rcvd_pkts as f64 / self.sent_pkts as f64
        }
    }
}

/// All measurements collected during a run.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Aggregate drop counters (all switches).
    pub drops: DropCounters,
    /// Shared-buffer utilization (`total/capacity`) sampled at each
    /// admission drop (paper Fig. 7a).
    pub drop_buffer_util: Vec<f64>,
    /// Memory-bandwidth utilization sampled at each admission drop
    /// (paper Fig. 7b).
    pub drop_membw_util: Vec<f64>,
    /// Periodic queue-length samples (paper Fig. 11).
    pub queue_samples: SampleLog,
    /// Per-CBR-source delivery counters (paper Fig. 12).
    pub cbr: Vec<CbrCounters>,
    /// Total data packets delivered to hosts.
    pub delivered_pkts: u64,
    /// Total data bytes delivered to hosts.
    pub delivered_bytes: u64,
    /// Events executed by [`crate::World::step`] — the denominator of the
    /// simulator's events/sec throughput metric.
    pub events_processed: u64,
    /// Executed events per kind, indexed by [`Event::kind`]. Like
    /// `events_processed`, a measure of the simulator's own work: it
    /// moves when scheduling changes, so reports keep it out of their
    /// frozen outputs.
    pub events_by_kind: [u64; Event::KIND_NAMES.len()],
    /// Executed [`Event::PortFree`]s that found nothing to transmit.
    pub idle_port_frees: u64,
    /// Executed [`Event::HostTxFree`]s that found nothing to transmit.
    pub idle_host_tx_frees: u64,
    /// Fault events executed (link flaps, drains, host churn).
    pub faults_fired: u64,
    /// Packets dropped because of faults: port flushes on link-down,
    /// drain-window arrivals, dead-host deliveries, routes with no
    /// enabled port. Kept separate from [`DropCounters`] so `losses`
    /// keeps meaning buffer-management drops.
    pub fault_drops: u64,
}

impl Metrics {
    /// Records an admission drop with the utilization context.
    pub fn record_drop(&mut self, threshold: bool, buffer_util: f64, membw_util: f64) {
        if threshold {
            self.drops.threshold_drops += 1;
        } else {
            self.drops.full_drops += 1;
        }
        self.drop_buffer_util.push(buffer_util);
        self.drop_membw_util.push(membw_util);
    }

    /// Records a fault-caused drop that happened *at a switch buffer*
    /// (link-down flush, drain-window refusal) with the same utilization
    /// context as an admission drop, so fault drops show up in the
    /// Fig. 7-style utilization-at-drop series too.
    pub fn record_fault_drop(&mut self, buffer_util: f64, membw_util: f64) {
        self.fault_drops += 1;
        self.drop_buffer_util.push(buffer_util);
        self.drop_membw_util.push(membw_util);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_up() {
        let d = DropCounters {
            threshold_drops: 3,
            full_drops: 2,
            head_drops: 4,
            pushout_evictions: 1,
        };
        assert_eq!(d.tail_drops(), 5);
        assert_eq!(d.total_losses(), 10);
    }

    #[test]
    fn cbr_loss_rate() {
        let c = CbrCounters {
            sent_pkts: 100,
            sent_bytes: 100_000,
            rcvd_pkts: 80,
            rcvd_bytes: 80_000,
        };
        assert!((c.loss_rate() - 0.2).abs() < 1e-12);
        assert_eq!(CbrCounters::default().loss_rate(), 0.0);
    }

    #[test]
    fn record_drop_appends_samples() {
        let mut m = Metrics::default();
        m.record_drop(true, 0.8, 0.5);
        m.record_drop(false, 0.99, 0.7);
        assert_eq!(m.drops.threshold_drops, 1);
        assert_eq!(m.drops.full_drops, 1);
        assert_eq!(m.drop_buffer_util, vec![0.8, 0.99]);
        assert_eq!(m.drop_membw_util, vec![0.5, 0.7]);
    }

    #[test]
    fn sample_log_roundtrips_flat_columns() {
        let mut log = SampleLog::default();
        assert!(log.is_empty());
        log.record(10, 0, 1, [5, 6, 7], [50, 60, 70]);
        log.record(20, 2, 0, [1, 2], [10, 20]);
        assert_eq!(log.len(), 2);
        let s0 = log.get(0);
        assert_eq!((s0.t, s0.switch, s0.partition), (10, 0, 1));
        assert_eq!(s0.qlens, &[5, 6, 7]);
        assert_eq!(s0.thresholds, &[50, 60, 70]);
        let s1 = log.get(1);
        assert_eq!(s1.qlens, &[1, 2]);
        assert_eq!(s1.thresholds, &[10, 20]);
        assert_eq!(log.iter().count(), 2);
    }
}
