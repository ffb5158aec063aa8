//! The seven workloads: one corpus and one query stream through every
//! stack the repository serves. Each runs in its own process, closed
//! loop, one client; each timed operation is text in, matches out.

use crate::check::{self, Answer};
use crate::inputs::{Inputs, Query, Scale, SHARDS};
use crate::measure::{
    median, run_passes, timed, Calibrator, Lat, PassPlan, Passes, SpanSink, Timing,
};
use crate::sut::{
    self, AlgorithmKind, HeapRung, MutableRung, PageProbe, PagedRung, Rung, Server, ShardRung,
};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Name and reason of each workload, in ladder order.
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "heap_select",
        "QueryEngine over the heap index: the floor every other rung is subtracted from; kernels, cursors and SF do nearly all the work here",
    ),
    (
        "sharded_scatter",
        "ShardedEngine over 8 length bands: band resolve and a per-query thread scatter and gather dominate; a kernel speed-up should barely move it",
    ),
    (
        "paged_fit",
        "PagedEngine with a pool as large as the snapshot: every page request hits, leaving CRC re-verify and block decode; the cache-fits case",
    ),
    (
        "paged_tight",
        "same snapshot, pool of a tenth of its pages: most page requests miss on every pass; the larger-than-cache case",
    ),
    (
        "mixed_rw",
        "MutableEngine with a write before every third query and one compaction, reads timed: they pay the widened window and the live re-score",
    ),
    (
        "write_compact",
        "the writes and the compaction of that same schedule timed: a read gain bought with slower writes or a slower compaction shows here",
    ),
    (
        "wire_loopback",
        "the same queries through setsim-server on loopback TCP: codec, framing, admission and two socket hops dominate",
    ),
];

/// Everything a workload needs from its process.
pub(crate) struct Ctx<'a> {
    pub(crate) scale: Scale,
    pub(crate) plan: PassPlan,
    pub(crate) inputs: &'a Inputs,
    /// This process's private scratch directory.
    pub(crate) tmp: &'a Path,
    /// This executable, to spawn the reference child.
    pub(crate) exe: &'a Path,
}

/// The write side of the `mixed_rw` schedule.
pub(crate) struct WriteSide {
    pub(crate) write_p50_us: f64,
    pub(crate) compact_s: f64,
    pub(crate) writes: usize,
}

/// What one untraced workload run measured.
pub(crate) struct EndToEnd {
    /// Per-operation latencies: of the queries, or on `write_compact` of
    /// the writes and the compaction.
    pub(crate) lat: Lat,
    /// Calibration kernel times taken during the timed passes.
    pub(crate) calibration: Vec<f64>,
    pub(crate) setup_s: f64,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    /// Warm-up answers, one per query served.
    pub(crate) answers: Vec<Answer>,
    pub(crate) write_side: Option<WriteSide>,
}

/// One text-in, matches-out operation, timed from outside. `split` takes
/// a third clock reading between `prepare` and `run` (traced runs only).
pub(crate) fn text_in<R: Rung>(
    rung: &mut R,
    q: &Query,
    split: bool,
) -> (Timing, Result<R::Out, String>) {
    let start = Instant::now();
    let prepared = rung.prepare(&q.text, q.tau, AlgorithmKind::Sf);
    let mid = split.then(Instant::now);
    let out = rung.run(&prepared);
    let end = Instant::now();
    (Timing { start, mid, end }, out)
}

/// The answer in `out`; an `Err` or an incomplete search is
/// [`Answer::FAILED`]. The first few errors are shown.
pub(crate) fn judge<R: Rung>(out: &Result<R::Out, String>) -> Answer {
    match out {
        Ok(out) => Answer::of(&R::view(out)),
        Err(e) => {
            use std::sync::atomic::{AtomicUsize, Ordering};
            static SHOWN: AtomicUsize = AtomicUsize::new(0);
            if SHOWN.fetch_add(1, Ordering::Relaxed) < 5 {
                eprintln!("operation failed: {e}");
            }
            Answer::FAILED
        }
    }
}

/// What serving a stream through one rung produced.
pub(crate) struct Served {
    pub(crate) passes: Passes,
    /// The warm-up pass's answers.
    pub(crate) answers: Vec<Answer>,
}

/// Serve `stream` through `rung`: one warm-up pass that records every
/// answer, then timed passes in which every answer must repeat.
pub(crate) fn serve<R: Rung>(
    rung: &mut R,
    stream: &[Query],
    plan: PassPlan,
    sink: Option<SpanSink<'_>>,
) -> Served {
    let split = sink.is_some();
    let mut answers = vec![Answer::FAILED; stream.len()];
    let passes = run_passes(
        stream.len(),
        plan,
        sink,
        |i| text_in(rung, &stream[i], split),
        |pass, i, out| {
            let answer = judge::<R>(&out);
            if pass == 0 {
                answers[i] = answer;
                answer != Answer::FAILED
            } else {
                answer == answers[i]
            }
        },
    );
    Served { passes, answers }
}

/// Re-answer `sample` with a full scan through the same rung; returns
/// how many queries SF and the scan disagree on. The two must return the
/// same ids; their scores may differ in the last bits, because the scan
/// sums a record's token weights in a different order than SF does.
pub(crate) fn scan_check<R: Rung>(rung: &mut R, sample: &[&Query]) -> u64 {
    const SCORE_SLACK: f64 = 1e-9;
    let mut failed = 0;
    for q in sample {
        let mut hits = |algo| {
            let prepared = rung.prepare(&q.text, q.tau, algo);
            let out = rung.run(&prepared).ok()?;
            let view = R::view(&out);
            let mut hits = view.matches.hits();
            hits.sort_unstable();
            view.complete.then_some(hits)
        };
        let agree = match (hits(AlgorithmKind::Sf), hits(AlgorithmKind::Scan)) {
            (Some(sf), Some(scan)) => {
                sf.len() == scan.len()
                    && sf.iter().zip(&scan).all(|(a, b)| {
                        a.0 == b.0
                            && (f64::from_bits(a.1) - f64::from_bits(b.1)).abs() <= SCORE_SLACK
                    })
            }
            _ => false,
        };
        failed += u64::from(!agree);
    }
    failed
}

/// Heap-engine answers for the whole stream, and optionally a snapshot
/// of the heap index, made by a child process so that the measuring
/// process's peak RSS is the workload's own.
pub(crate) struct Reference {
    pub(crate) answers: Vec<Answer>,
    pub(crate) snapshot: PathBuf,
}

const ANSWERS_FILE: &str = "answers.bin";
const SNAPSHOT_FILE: &str = "index.snap";

impl Reference {
    fn from_child(cx: &Ctx<'_>, snapshot: bool) -> Result<Self, String> {
        let mut cmd = Command::new(cx.exe);
        cmd.arg("reference")
            .args(["--scale", cx.scale.name])
            .arg("--out")
            .arg(cx.tmp);
        if snapshot {
            cmd.arg("--snapshot");
        }
        let status = cmd.status().map_err(|e| format!("reference child: {e}"))?;
        if !status.success() {
            return Err(format!("reference child exited with {status}"));
        }
        Ok(Self {
            answers: check::read_answers(&cx.tmp.join(ANSWERS_FILE))?,
            snapshot: cx.tmp.join(SNAPSHOT_FILE),
        })
    }
}

/// The reference child's whole job.
pub(crate) fn write_reference(inputs: &Inputs, out: &Path, snapshot: bool) -> Result<(), String> {
    let collection = sut::build_collection(inputs.corpus.words());
    let mut rung = HeapRung::build(&collection);
    let served = serve(&mut rung, &inputs.stream, WARM_UP_ONLY, None);
    if served.passes.failed > 0 {
        return Err(format!("{} reference queries failed", served.passes.failed));
    }
    check::write_answers(&out.join(ANSWERS_FILE), &served.answers)?;
    if snapshot {
        rung.save(&out.join(SNAPSHOT_FILE))?;
    }
    Ok(())
}

/// A plan that stops after the warm-up pass.
pub(crate) const WARM_UP_ONLY: PassPlan = PassPlan {
    min_passes: 0,
    seconds: 0.0,
};

/// The instances a read-only workload measures, one after another: each
/// is set up (timed), warmed up (answers checked) and then serves its
/// share of the timed passes. A query's latency is the median over the
/// passes of every instance, so a run does not inherit the luck of one
/// instance's memory placement, which alone moves the heap workload's
/// median by up to 5 %.
struct Replicas<'a> {
    /// Heap-engine answers the warm-up passes must reproduce.
    reference: Option<&'a [Answer]>,
    setups: Vec<f64>,
    rows: Vec<Vec<u32>>,
    calibration: Vec<f64>,
    attempted: u64,
    failed: u64,
    answers: Vec<Answer>,
}

/// Instances measured by `heap_select`, `sharded_scatter` and
/// `wire_loopback`; each also feeds `setup_s`.
const REPLICAS: usize = 3;

impl<'a> Replicas<'a> {
    fn new(reference: Option<&'a [Answer]>) -> Self {
        Self {
            reference,
            setups: Vec::new(),
            rows: Vec::new(),
            calibration: Vec::new(),
            attempted: 0,
            failed: 0,
            answers: Vec::new(),
        }
    }

    /// One instance's share of the run's timed passes.
    fn share(plan: PassPlan, of: usize) -> PassPlan {
        PassPlan {
            seconds: plan.seconds / of as f64,
            ..plan
        }
    }

    /// Record a complete set-up that began at `since`.
    fn set_up(&mut self, since: Instant) {
        self.setups.push(since.elapsed().as_secs_f64());
    }

    /// Fold in what one instance served.
    fn add(&mut self, served: Served) {
        if let Some(reference) = self.reference {
            self.failed += check::mismatches(&served.answers, reference);
        }
        self.attempted += served.passes.attempted;
        self.failed += served.passes.failed;
        self.rows.extend(served.passes.rows);
        self.calibration.extend(served.passes.calibration);
        self.answers = served.answers;
    }

    fn finish(mut self) -> EndToEnd {
        EndToEnd {
            lat: Lat::from_passes(&self.rows),
            calibration: self.calibration,
            setup_s: median(&mut self.setups),
            attempted: self.attempted,
            failed: self.failed,
            answers: self.answers,
            write_side: None,
        }
    }
}

/// `QueryEngine::new(InvertedIndex::build(..))`; answers are checked
/// against a full scan on a fixed sample.
pub(crate) fn heap_select(cx: &Ctx<'_>) -> EndToEnd {
    let mut replicas = Replicas::new(None);
    for replica in 0..REPLICAS {
        let t = Instant::now();
        let collection = sut::build_collection(cx.inputs.corpus.words());
        let mut rung = HeapRung::build(&collection);
        replicas.set_up(t);
        let plan = Replicas::share(cx.plan, REPLICAS);
        replicas.add(serve(&mut rung, &cx.inputs.stream, plan, None));
        if replica == 0 {
            let sample = Inputs::sample(&cx.inputs.stream, cx.scale.scan_sample);
            replicas.attempted += sample.len() as u64;
            replicas.failed += scan_check(&mut rung, &sample);
        }
    }
    replicas.finish()
}

/// `ShardedIndex::build(.., 8, ..)` behind `ShardedEngine::search`.
pub(crate) fn sharded_scatter(cx: &Ctx<'_>) -> Result<EndToEnd, String> {
    let reference = Reference::from_child(cx, false)?;
    let mut replicas = Replicas::new(Some(&reference.answers));
    for _ in 0..REPLICAS {
        let t = Instant::now();
        let collection = sut::build_collection(cx.inputs.corpus.words());
        let mut rung = ShardRung::build(&collection, SHARDS)?;
        drop(collection);
        replicas.set_up(t);
        let plan = Replicas::share(cx.plan, REPLICAS);
        replicas.add(serve(&mut rung, &cx.inputs.stream, plan, None));
    }
    Ok(replicas.finish())
}

/// Complete `open_paged` calls behind a paged workload's `setup_s`; the
/// last one serves. A warm-up pass costs as much as a timed one here, so
/// the passes are not shared among instances.
const PAGED_OPENS: usize = 5;

/// `QueryEngine::open_paged` over the reference snapshot, with a pool of
/// all its pages (`tight == false`) or a tenth of them.
pub(crate) fn paged(cx: &Ctx<'_>, tight: bool) -> Result<EndToEnd, String> {
    let reference = Reference::from_child(cx, true)?;
    let pool = pool_pages(&reference.snapshot, tight)?;
    let mut replicas = Replicas::new(Some(&reference.answers));
    let mut rung = None;
    for _ in 0..PAGED_OPENS {
        drop(rung.take());
        let t = Instant::now();
        rung = Some(PagedRung::open(&reference.snapshot, pool)?);
        replicas.set_up(t);
    }
    let mut rung = rung.expect("PAGED_OPENS is at least one");
    let stream = &cx.inputs.stream[..cx.scale.paged_queries];
    replicas.add(serve(&mut rung, stream, cx.plan, None));
    Ok(replicas.finish())
}

/// Pool size of the paged workloads for the snapshot at `path`.
pub(crate) fn pool_pages(path: &Path, tight: bool) -> Result<usize, String> {
    let pages = usize::try_from(PageProbe::open(path, 1)?.num_pages())
        .map_err(|_| "page count exceeds usize".to_string())?;
    Ok(if tight { pages / 10 } else { pages }.max(1))
}

/// `ServerHandle::spawn(MutableEngine, ServerConfig::default())` on an
/// ephemeral port, one `Client` connection.
pub(crate) fn wire_loopback(cx: &Ctx<'_>) -> Result<EndToEnd, String> {
    let reference = Reference::from_child(cx, false)?;
    let mut replicas = Replicas::new(Some(&reference.answers));
    for _ in 0..REPLICAS {
        let t = Instant::now();
        let server = Server::spawn(sut::build_mutable(cx.inputs.corpus.words(), false)?)?;
        let mut client = server.connect()?;
        replicas.set_up(t);
        let plan = Replicas::share(cx.plan, REPLICAS);
        replicas.add(serve(&mut client, &cx.inputs.stream, plan, None));
        drop(client);
        // A request the server shed already failed its operation above.
        server.shutdown();
    }
    Ok(replicas.finish())
}

/// Where the rotating write schedule stands: inserts take held-out
/// words in order, deletes walk record ids up from the front and upserts
/// down from the back, so every write hits a live record and the
/// schedule is the same on every pass.
pub(crate) struct WriteCursor {
    written: usize,
    next_text: usize,
    delete_next: u64,
    upsert_next: u64,
}

/// Names of the three write kinds, in rotation order.
pub(crate) const WRITE_KINDS: [&str; 3] = ["insert", "delete", "upsert"];

impl WriteCursor {
    pub(crate) fn new(base_records: usize) -> Self {
        Self {
            written: 0,
            next_text: 0,
            delete_next: 0,
            upsert_next: base_records as u64 - 1,
        }
    }

    fn take_text<'t>(&mut self, heldout: &[&'t str]) -> &'t str {
        self.next_text += 1;
        heldout[(self.next_text - 1) % heldout.len()]
    }

    /// Apply and time the next write; returns its index into
    /// [`WRITE_KINDS`] and whether it hit a live record.
    pub(crate) fn apply(
        &mut self,
        rung: &MutableRung<'_>,
        heldout: &[&str],
    ) -> (usize, Timing, bool) {
        let kind = self.written % WRITE_KINDS.len();
        self.written += 1;
        let (timing, ok) = match kind {
            0 => {
                let text = self.take_text(heldout);
                timed(|| {
                    rung.insert(text);
                    true
                })
            }
            1 => {
                self.delete_next += 1;
                let id = self.delete_next - 1;
                timed(|| rung.delete(id))
            }
            _ => {
                let text = self.take_text(heldout);
                self.upsert_next -= 1;
                let id = self.upsert_next + 1;
                timed(|| rung.upsert(id, text))
            }
        };
        (kind, timing, ok)
    }
}

/// `MutableEngine` over the corpus minus the held-out words, drift budget
/// disabled, a fresh engine per pass: one write before every third
/// query, one `compact()` at the midpoint. On the warm-up pass a query
/// sample is re-answered with a full scan through the same engine at the
/// same schedule point, before and after the compaction. `mixed_rw`
/// reports the reads; `write_compact` runs the same schedule and reports
/// its writes and, as one more operation, its compaction.
pub(crate) fn mixed_rw(cx: &Ctx<'_>, report_writes: bool) -> Result<EndToEnd, String> {
    let words: Vec<&str> = cx.inputs.corpus.words().collect();
    let (base, heldout) = words.split_at(words.len() - cx.scale.heldout);
    let stream = &cx.inputs.stream;
    let midpoint = stream.len() / 2;
    let sample = Inputs::sample(stream, cx.scale.mixed_scan_sample);

    let mut setups = Vec::new();
    let mut compactions = Vec::new();
    let (mut read_rows, mut write_rows) = (Vec::new(), Vec::new());
    let mut answers = vec![Answer::FAILED; stream.len()];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut started = Instant::now();
    let mut pass = 0usize;
    let mut calibrator = Calibrator::new();
    loop {
        let t = Instant::now();
        let engine = sut::build_mutable(base.iter().copied(), true)?;
        setups.push(t.elapsed().as_secs_f64());
        let mut rung = MutableRung::new(&engine);
        let mut cursor = WriteCursor::new(base.len());
        let (mut reads, mut writes) = (Vec::new(), Vec::new());
        for (j, q) in stream.iter().enumerate() {
            calibrator.tick();
            if j % 3 == 1 {
                let (_, timing, ok) = cursor.apply(&rung, heldout);
                writes.push(timing.nanos());
                attempted += 1;
                failed += u64::from(!ok);
            }
            if j == midpoint {
                if pass == 0 {
                    failed += scan_check(&mut rung, &sample);
                }
                let (timing, ()) = timed(|| rung.compact());
                compactions.push(timing.seconds());
                if pass == 0 {
                    failed += scan_check(&mut rung, &sample);
                    attempted += 2 * sample.len() as u64;
                }
            }
            let (timing, out) = text_in(&mut rung, q, false);
            reads.push(timing.nanos());
            let answer = judge::<MutableRung<'_>>(&out);
            attempted += 1;
            if pass == 0 {
                answers[j] = answer;
                failed += u64::from(answer == Answer::FAILED);
            } else {
                failed += u64::from(answer != answers[j]);
            }
        }
        if pass == 0 {
            // Like every workload, the warm-up pass is not measured.
            setups.clear();
            compactions.clear();
            calibrator.restart();
            started = Instant::now();
        } else {
            read_rows.push(reads);
            write_rows.push(writes);
        }
        pass += 1;
        if cx.plan.done(read_rows.len(), started) {
            break;
        }
    }
    let mut write_lat = Lat::from_passes(&write_rows);
    let write_side = WriteSide {
        write_p50_us: write_lat.p50(),
        compact_s: median(&mut compactions),
        writes: write_lat.per_op_us.len(),
    };
    Ok(EndToEnd {
        lat: if report_writes {
            // The pass's compaction is its one further operation.
            write_lat.per_op_us.push(write_side.compact_s * 1e6);
            write_lat
        } else {
            Lat::from_passes(&read_rows)
        },
        calibration: calibrator.finish(),
        setup_s: median(&mut setups),
        attempted,
        failed,
        answers,
        write_side: Some(write_side),
    })
}
