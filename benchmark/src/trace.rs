//! Spans around the calls into each layer, recorded from the benchmark's
//! side of those calls.
//!
//! The plane is single-threaded and its layers do not call each other
//! through the benchmark, so at any instant exactly one layer is at work:
//! the harness itself ([`Layer::Run`], the root span) or the layer the
//! harness has just called into. The recorder is therefore a switch, not a
//! stack: [`Tracer::enter`] closes the span of whatever ran until now and
//! opens the next with the same clock read, and [`Tracer::leave`] hands
//! control back to the root. Every span is a child of the root, a layer's
//! self time is the sum of its spans, and the root's self time is what no
//! span covers — so the self times add up to the traced interval exactly.
//! Spans of one client request share its `op` identifier.
//!
//! Spans are kept in memory and written out when the pass ends. Self times
//! and call counts are accumulated as spans close, so the file may hold
//! fewer spans than were recorded (see [`SPAN_FILE_CAP`]) without losing
//! time.
//!
//! A workload closes a hundred spans per operation, so the span clock must
//! not become the thing being measured: the process CPU clock is a system
//! call, and even `Instant` (vDSO, ~33 ns a read here) cost 15 % of the
//! wire workload. On x86-64 the clock is therefore the time-stamp counter
//! (~8 ns), converted to nanoseconds by the ratio of the two clocks over
//! the whole pass; elsewhere it is `Instant`. Elapsed time is CPU time
//! unless the process is descheduled, and the trace pass reports its
//! overhead from the CPU clock.

use rsoc_sim::LogHistogram;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans written to the trace file: the first this-many of a pass. Every
/// span still counts towards the self times.
pub const SPAN_FILE_CAP: usize = 200_000;

/// Where a span's time is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Layer {
    /// The root: the whole timed phase on the benchmark's plane. Its self
    /// time is the harness's own — event loop, queues, bookkeeping.
    Run,
    ClientIssue,
    ClientTally,
    Encode,
    Decode,
    FrameWrite,
    FrameRead,
    OnInputClient,
    OnInputPeer,
    OnInputTimer,
    Drain,
    PersistCommit,
    PersistStable,
}

pub const LAYERS: usize = 13;

impl Layer {
    pub const ALL: [Layer; LAYERS] = [
        Layer::Run,
        Layer::ClientIssue,
        Layer::ClientTally,
        Layer::Encode,
        Layer::Decode,
        Layer::FrameWrite,
        Layer::FrameRead,
        Layer::OnInputClient,
        Layer::OnInputPeer,
        Layer::OnInputTimer,
        Layer::Drain,
        Layer::PersistCommit,
        Layer::PersistStable,
    ];

    /// `<crate>.<thing>`: the crate whose code the span's time is spent in.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Run => "harness.run",
            Layer::ClientIssue => "client.issue",
            Layer::ClientTally => "client.tally",
            Layer::Encode => "bft.codec.encode",
            Layer::Decode => "bft.codec.decode",
            Layer::FrameWrite => "transport.write_frame",
            Layer::FrameRead => "transport.read_frame",
            Layer::OnInputClient => "bft.on_input.client",
            Layer::OnInputPeer => "bft.on_input.peer",
            Layer::OnInputTimer => "bft.on_input.timer",
            Layer::Drain => "store.drain",
            Layer::PersistCommit => "store.persist_commit",
            Layer::PersistStable => "store.persist_stable",
        }
    }

    fn is_on_input(self) -> bool {
        matches!(self, Layer::OnInputClient | Layer::OnInputPeer | Layer::OnInputTimer)
    }
}

/// The span clock, in ticks since an arbitrary origin.
#[cfg(target_arch = "x86_64")]
fn ticks(_epoch: Instant) -> u64 {
    // SAFETY: RDTSC has no preconditions: it reads a counter register and
    // touches no memory.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
fn ticks(epoch: Instant) -> u64 {
    let since = epoch.elapsed();
    since.as_secs() * 1_000_000_000 + u64::from(since.subsec_nanos())
}

/// A closed span of a layer other than the root.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    start: u64,
    end: u64,
    /// The client operation that caused this work (0 when none did).
    op: u64,
}

/// The span recorder. When off, every call is one predictable branch and
/// reads no clock.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    first_tick: u64,
    last_tick: u64,
    /// Nanoseconds per tick, fixed by [`stop`](Self::stop).
    ns_per_tick: f64,
    /// The layer at work since `since`, on behalf of `op`.
    current: Layer,
    since: u64,
    op: u64,
    spans: Vec<Span>,
    /// Time per layer, in ticks.
    self_ticks: [u64; LAYERS],
    /// Spans closed per layer.
    pub calls: [u64; LAYERS],
    /// Duration of every `on_input` call, in ticks.
    on_input_ticks: LogHistogram,
}

impl Tracer {
    pub fn off() -> Self {
        Self::new(false)
    }

    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(on: bool) -> Self {
        let epoch = Instant::now();
        let first_tick = ticks(epoch);
        Tracer {
            on,
            epoch,
            first_tick,
            last_tick: first_tick,
            ns_per_tick: 1.0,
            current: Layer::Run,
            since: first_tick,
            op: 0,
            spans: Vec::new(),
            self_ticks: [0; LAYERS],
            calls: [0; LAYERS],
            on_input_ticks: LogHistogram::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens the root span: the traced interval starts now.
    pub fn start(&mut self) {
        if self.on {
            self.epoch = Instant::now();
            self.first_tick = ticks(self.epoch);
            self.since = self.first_tick;
        }
    }

    /// `layer` is at work from now on, on behalf of operation `op`; the
    /// span of whatever ran until now closes at the same instant.
    #[inline]
    pub fn enter(&mut self, layer: Layer, op: u64) {
        if self.on {
            let at = ticks(self.epoch);
            self.close(at);
            (self.current, self.since, self.op) = (layer, at, op);
        }
    }

    /// Control is back with the harness.
    #[inline]
    pub fn leave(&mut self) {
        self.enter(Layer::Run, 0);
    }

    /// Closes the root span. Both clocks have now run for the whole
    /// interval, which calibrates ticks against nanoseconds.
    pub fn stop(&mut self) {
        if self.on {
            let at = ticks(self.epoch);
            self.close(at);
            self.last_tick = at;
            self.calls[Layer::Run as usize] = 1;
            let elapsed_ns = self.epoch.elapsed().as_nanos() as f64;
            self.ns_per_tick = elapsed_ns / at.saturating_sub(self.first_tick).max(1) as f64;
        }
    }

    fn close(&mut self, at: u64) {
        let dur = at.saturating_sub(self.since);
        let i = self.current as usize;
        self.self_ticks[i] += dur;
        if self.current == Layer::Run {
            return;
        }
        self.calls[i] += 1;
        if self.current.is_on_input() {
            self.on_input_ticks.record(dur);
        }
        if self.spans.len() < SPAN_FILE_CAP {
            self.spans.push(Span { layer: self.current, start: self.since, end: at, op: self.op });
        }
    }

    fn ns(&self, ticks: u64) -> f64 {
        ticks as f64 * self.ns_per_tick
    }

    /// Self time of `layer` in microseconds.
    pub fn self_us(&self, layer: Layer) -> f64 {
        self.ns(self.self_ticks[layer as usize]) / 1e3
    }

    /// Self time summed over every layer (= the root span's duration).
    pub fn total_us(&self) -> f64 {
        self.ns(self.self_ticks.iter().sum()) / 1e3
    }

    /// The `q`-quantile of the `on_input` calls' durations, in
    /// microseconds (0 when none was recorded).
    pub fn on_input_quantile_us(&self, q: f64) -> f64 {
        self.ns(self.on_input_ticks.quantile(q).unwrap_or(0)) / 1e3
    }

    /// The trace file: layer names with self time and call counts, then
    /// the spans as `[layer, start_ns, end_ns, parent, op]` rows. Row 0 is
    /// the root (`parent` −1); every other span is its child. `op` is
    /// `client << 32 | seq` of the request that caused the work.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut s = String::with_capacity(256 + self.spans.len() * 48);
        let recorded: u64 = self.calls.iter().sum();
        let _ = write!(
            s,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"ns since the pass began\",\
             \"spans_recorded\":{recorded},\"spans_written\":{},\"layers\":[",
            self.spans.len() + 1
        );
        for (i, l) in Layer::ALL.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let (self_ns, calls) = (self.ns(self.self_ticks[i]).round(), self.calls[i]);
            let _ = write!(
                s,
                "{sep}{{\"name\":\"{}\",\"self_ns\":{self_ns},\"calls\":{calls}}}",
                l.name()
            );
        }
        let since_start = |tick: u64| self.ns(tick.saturating_sub(self.first_tick)).round();
        let _ = write!(s, "],\"spans\":[[0,0,{},-1,0]", since_start(self.last_tick));
        for sp in &self.spans {
            let (start, end) = (since_start(sp.start), since_start(sp.end));
            let _ = write!(s, ",[{},{start},{end},0,{}]", sp.layer as u8, sp.op);
        }
        s.push_str("]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_partition_the_root_span() {
        let mut t = Tracer::on();
        t.start();
        t.enter(Layer::Decode, 7);
        t.enter(Layer::OnInputPeer, 7);
        t.leave();
        t.enter(Layer::Encode, 9);
        t.leave();
        t.stop();
        assert_eq!(t.self_ticks.iter().sum::<u64>(), t.last_tick - t.first_tick);
        assert_eq!(t.calls[Layer::Run as usize], 1);
        assert_eq!(t.calls[Layer::OnInputPeer as usize], 1);
        assert_eq!(t.on_input_ticks.count(), 1);
        // Consecutive layers share their boundary instant.
        let (decode, on_input) = (t.spans[0], t.spans[1]);
        assert_eq!(decode.end, on_input.start);
        assert_eq!((decode.op, t.spans[2].op), (7, 9));
        assert!(t.to_json("w", 1).contains("\"spans_written\":4"));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        t.start();
        t.enter(Layer::Encode, 1);
        t.leave();
        t.stop();
        assert_eq!(t.calls, [0; LAYERS]);
        assert_eq!(t.total_us(), 0.0);
    }
}
