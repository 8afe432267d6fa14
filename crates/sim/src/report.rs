//! The run report: per-client outcomes, chaos tallies, the merged
//! EVENTS JSONL, and the determinism fingerprint `repro sim --repeat`
//! and the CI seed sweep assert on.

use simrng::fnv1a;

use crate::chaos::ChaosTally;

/// One client's row in the report.
#[derive(Debug, Clone)]
pub struct ClientRow {
    /// Client index.
    pub id: usize,
    /// Session id (0 if open failed).
    pub sid: u64,
    /// `closed`, `lost`, or `error`.
    pub outcome: &'static str,
    /// Steps the service acknowledged.
    pub steps: u64,
    /// Final trace hash from `CLOSE` (closed clients only).
    pub trace: u64,
    /// Whether `VERIFY` said `verdict=consistent` (closed clients only).
    pub consistent: bool,
    /// The fault-free golden trace hash replayed from the client's spec
    /// (closed clients only).
    pub golden: u64,
    /// Frames the client sent.
    pub frames: u64,
}

/// Everything one simulation run produced.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// The run seed (replay key).
    pub seed: u64,
    /// Shards simulated.
    pub shards: usize,
    /// Whether chaos injection was on.
    pub chaos: bool,
    /// Per-client rows, in client order.
    pub rows: Vec<ClientRow>,
    /// Clients that closed their session cleanly.
    pub completed: usize,
    /// Clients whose session was lost to a crash or eviction.
    pub lost: usize,
    /// Clients that died to an unexpected error.
    pub errored: usize,
    /// Closed clients whose trace hash diverged from the golden replay.
    pub hash_mismatches: usize,
    /// Closed clients whose `VERIFY` verdict was not `consistent`.
    pub inconsistent: usize,
    /// Violations reported by the final service-wide `VERIFY`.
    pub violations: u64,
    /// Sessions the TTL sweeper evicted (from the metrics registry).
    pub evicted: u64,
    /// Steps executed service-wide (from the metrics registry).
    pub steps_total: u64,
    /// Shard restarts that completed.
    pub restarts: u64,
    /// What chaos injected.
    pub tally: ChaosTally,
    /// Virtual nanoseconds the run spanned.
    pub final_virtual_ns: u64,
    /// The merged `EVENTS` dump, one JSON object per line — the
    /// byte-identical artifact the determinism tests compare.
    pub events_jsonl: String,
}

impl SimReport {
    /// Whether the run upheld every invariant: no unexpected client
    /// errors, no trace-hash divergence from the golden replay, no PRAM
    /// violations, no garbage frame accepted — and, without chaos, no
    /// session lost at all.
    pub fn ok(&self) -> bool {
        self.errored == 0
            && self.hash_mismatches == 0
            && self.inconsistent == 0
            && self.violations == 0
            && self.tally.malformed_accepted == 0
            && (self.chaos || self.lost == 0)
    }

    /// A single hash over everything observable: the event log bytes
    /// and every client's `(sid, outcome, steps, trace)`. Two runs of
    /// the same seed must produce the same fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325;
        for byte in self.events_jsonl.as_bytes() {
            fnv1a(&mut h, u64::from(*byte));
        }
        for row in &self.rows {
            fnv1a(&mut h, row.sid);
            fnv1a(&mut h, row.outcome.len() as u64);
            fnv1a(&mut h, row.steps);
            fnv1a(&mut h, row.trace);
            fnv1a(&mut h, u64::from(row.consistent));
        }
        h
    }

    /// The report as one JSON object (the `--json-out` artifact). The
    /// event log is summarized by line count and fingerprint; the raw
    /// JSONL is written separately when a failure needs the full log.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"seed\":{},\"shards\":{},\"chaos\":{},\"clients\":{},\"completed\":{},\
             \"lost\":{},\"errored\":{},\"hash_mismatches\":{},\"inconsistent\":{},\
             \"violations\":{},\"evicted\":{},\"steps_total\":{},\"crashes\":{},\
             \"restarts\":{},\"queue_full\":{},\"malformed_rejected\":{},\
             \"malformed_accepted\":{},\"oversized_rejected\":{},\"stalls\":{},\
             \"virtual_ns\":{},\"events_lines\":{},\"fingerprint\":\"{:016x}\",\"ok\":{},\
             \"rows\":[",
            self.seed,
            self.shards,
            self.chaos,
            self.rows.len(),
            self.completed,
            self.lost,
            self.errored,
            self.hash_mismatches,
            self.inconsistent,
            self.violations,
            self.evicted,
            self.steps_total,
            self.tally.crashes,
            self.restarts,
            self.tally.queue_full,
            self.tally.malformed_rejected,
            self.tally.malformed_accepted,
            self.tally.oversized_rejected,
            self.tally.stalls,
            self.final_virtual_ns,
            self.events_jsonl.lines().count(),
            self.fingerprint(),
            self.ok(),
        );
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{},\"sid\":{},\"outcome\":\"{}\",\"steps\":{},\
                 \"trace\":\"{:016x}\",\"golden\":\"{:016x}\",\"consistent\":{},\"frames\":{}}}",
                row.id,
                row.sid,
                row.outcome,
                row.steps,
                row.trace,
                row.golden,
                row.consistent,
                row.frames,
            ));
        }
        out.push_str("]}");
        out
    }

    /// Human-readable summary (what `repro sim` prints).
    pub fn render(&self) -> String {
        let mut out = format!(
            "sim seed={} shards={} clients={} chaos={} virtual={:.3}ms\n\
             completed={} lost={} errored={} steps={} evicted={}\n\
             crashes={} restarts={} queue_full={} malformed={} oversized={} stalls={}\n\
             hash_mismatches={} inconsistent={} violations={} fingerprint={:016x} ok={}",
            self.seed,
            self.shards,
            self.rows.len(),
            self.chaos,
            self.final_virtual_ns as f64 / 1e6,
            self.completed,
            self.lost,
            self.errored,
            self.steps_total,
            self.evicted,
            self.tally.crashes,
            self.restarts,
            self.tally.queue_full,
            self.tally.malformed_rejected,
            self.tally.oversized_rejected,
            self.tally.stalls,
            self.hash_mismatches,
            self.inconsistent,
            self.violations,
            self.fingerprint(),
            self.ok(),
        );
        for row in &self.rows {
            out.push_str(&format!(
                "\n  client={} sid={} {} steps={} trace={:016x}{}",
                row.id,
                row.sid,
                row.outcome,
                row.steps,
                row.trace,
                if row.outcome == "closed" && row.trace != row.golden {
                    " GOLDEN-MISMATCH"
                } else {
                    ""
                },
            ));
        }
        out
    }
}
