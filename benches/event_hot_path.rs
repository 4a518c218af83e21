//! The PDES hot-path microbenches behind the `ww-pdes` transport/queue
//! rework:
//!
//! * `event_queue`: steady-state hold-and-churn (pop one, push one) on
//!   the `BinaryHeap`-backed `EventQueue` vs the monotone `RadixQueue`
//!   at 1k / 100k / 1M pending events — the near-monotone access
//!   pattern both packet engines generate.
//! * `arrival_path`: the hold model of a Poisson arrival firing, at 32 k
//!   rows of 8 and of 70 streams — `front_rows`, the packet driver's
//!   shape (every stream's next arrival a 16-byte key in its node's
//!   row, one head per row in the calendar: pop head → draw gap → store
//!   key → scan the row → re-head), against `entry_per_stream`, the
//!   shape it replaced (one 80-byte calendar entry per stream: pop →
//!   draw gap → `schedule`). The "front" row of the hold probe.
//!   `front_rows_lookahead` is `front_rows` plus the packet driver's
//!   look-ahead: after each pop it peeks the next head
//!   (`RadixQueue::peek_radix`) and prefetches that row's whole key
//!   slice and that head's stream generator, so the next pop finds them
//!   on their way in.
//! * `meter_roll`: one node rolling its row of per-document meters one
//!   window on, at 32 k rows of 8 and of 70 cells — `quiet` (no event
//!   since the last roll, the average at zero: a leaf's `served` row)
//!   and `busy` (every cell took an event, recorded inside the timed
//!   step) on `ww-cache`'s three-word cell, against `*_four_word`, the
//!   32-byte cell and always-dividing roll it replaced, carried here.
//! * `wire_transfer`: per-event cost of moving a wire-sized message
//!   through the lock-free SPSC ring, per-event publish vs one batched
//!   commit per window.
//! * `packet_loop`: the whole event loop — `PacketSim` over a fixed
//!   window of simulated seconds — in ns per processed event, on
//!   `two_level(60, 60)`, whose state fits in L2, and on
//!   `two_level(180, 180)`, the `seq_cdn` world. The small world reads
//!   the loop's instruction cost; the gap to the large one is its
//!   memory cost. Each world is built afresh and timed
//!   [`LOOP_REPETITIONS`] times, every reading printed and then their
//!   median. `cargo bench --bench event_hot_path -- packet_loop` runs
//!   this alone, without the criterion groups in front of it (the
//!   vendored criterion ignores name filters, so `main` reads this one).

use criterion::{criterion_group, BenchmarkId, Criterion};
use std::time::{Duration, Instant};
use ww_cache::DenseFlowTable;
use ww_core::packetsim::{PacketSim, PacketSimConfig};
use ww_sim::{
    exp_delay, key_of, prefetch, time_of, EventQueue, RadixQueue, SimQueue, SimRng, SimTime,
    StreamRng,
};

/// Deterministic 64-bit LCG; the high bits pick the next event offset.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Builds a queue holding `pending` events on a pseudo-random schedule.
fn fill<Q: SimQueue<u64> + Default>(pending: usize, state: &mut u64) -> Q {
    let mut q = Q::default();
    for i in 0..pending {
        let dt = (lcg(state) % 1_000) as f64 * 1e-3;
        q.schedule(SimTime::from_secs(dt), i as u64);
    }
    q
}

/// One hold-and-churn step: pop the head, schedule a replacement a
/// pseudo-random offset past it. Occupancy stays constant, time moves
/// forward — the simulator's steady state.
fn churn<Q: SimQueue<u64>>(q: &mut Q, state: &mut u64) -> u64 {
    let (t, ev) = q.pop().expect("queue stays occupied");
    let dt = (lcg(state) % 1_000) as f64 * 1e-3;
    q.schedule(t + SimTime::from_secs(dt), ev);
    ev
}

fn bench_queues(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
        .sample_size(10);
    for &pending in &[1_000usize, 100_000, 1_000_000] {
        let mut state = pending as u64 | 1;
        let mut heap: EventQueue<u64> = fill(pending, &mut state);
        group.bench_with_input(BenchmarkId::new("heap_churn", pending), &pending, |b, _| {
            b.iter(|| std::hint::black_box(churn(&mut heap, &mut state)));
        });
        let mut state = pending as u64 | 1;
        let mut radix: RadixQueue<u64> = fill(pending, &mut state);
        group.bench_with_input(
            BenchmarkId::new("radix_churn", pending),
            &pending,
            |b, _| {
                b.iter(|| std::hint::black_box(churn(&mut radix, &mut state)));
            },
        );
    }
    group.finish();
}

/// A calendar payload the size of a `PacketEvent` (64 bytes), naming a
/// stream of a row.
#[derive(Clone, Copy)]
struct Fire {
    row: u32,
    stream: u32,
    _body: [u64; 7],
}

fn fire(row: usize, stream: usize) -> Fire {
    Fire {
        row: row as u32,
        stream: stream as u32,
        _body: [0; 7],
    }
}

/// Every row fires once per simulated second in total, like a leaf of
/// the benchmark worlds.
const ROWS: usize = 32 * 1024;

/// One generator per stream of every row, and each stream's first gap.
fn streams(per_row: usize) -> (Vec<StreamRng>, Vec<f64>) {
    let master = SimRng::seed(1997);
    let mut rngs: Vec<StreamRng> = (0..ROWS * per_row)
        .map(|i| master.fork(i as u64).into_stream())
        .collect();
    let gaps = rngs
        .iter_mut()
        .map(|rng| exp_delay(rng, per_row as f64))
        .collect();
    (rngs, gaps)
}

/// The earliest key of a row and its stream.
fn front(keys: &[u128]) -> (u128, usize) {
    let (stream, &key) = keys
        .iter()
        .enumerate()
        .min_by_key(|&(_, &key)| key)
        .expect("a row has streams");
    (key, stream)
}

fn bench_arrivals(c: &mut Criterion) {
    let mut group = c.benchmark_group("arrival_path");
    group
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
        .sample_size(10);
    for &per_row in &[8usize, 70] {
        // One side alive at a time: at 70 streams a side is ~200 MB.
        for lookahead in [false, true] {
            let (mut rngs, gaps) = streams(per_row);
            let mut queue: RadixQueue<Fire> = RadixQueue::new();
            let mut next: Vec<u128> = gaps
                .iter()
                .map(|&gap| key_of(SimTime::from_secs(gap), queue.alloc_seq()))
                .collect();
            for (row, keys) in next.chunks_exact(per_row).enumerate() {
                let (key, stream) = front(keys);
                queue.schedule_keyed(time_of(key), key as u64, fire(row, stream));
            }
            let name = if lookahead {
                "front_rows_lookahead"
            } else {
                "front_rows"
            };
            group.bench_function(BenchmarkId::new(name, per_row), |b| {
                b.iter(|| {
                    let (t, head) = queue.pop().expect("every row keeps a head");
                    if lookahead {
                        if let Some((_, next_head)) = queue.peek_radix() {
                            let at = next_head.row as usize * per_row;
                            prefetch(&next[at..at + per_row]);
                            prefetch(&rngs[at + next_head.stream as usize]);
                        }
                    }
                    let (row, at) = (head.row as usize, head.row as usize * per_row);
                    let gap = exp_delay(&mut rngs[at + head.stream as usize], per_row as f64);
                    next[at + head.stream as usize] =
                        key_of(t + SimTime::from_secs(gap), queue.alloc_seq());
                    let (key, stream) = front(&next[at..at + per_row]);
                    queue.schedule_keyed(time_of(key), key as u64, fire(row, stream));
                    std::hint::black_box(row)
                });
            });
        }
        {
            let (mut rngs, gaps) = streams(per_row);
            let mut queue: RadixQueue<Fire> = RadixQueue::new();
            for (i, &gap) in gaps.iter().enumerate() {
                queue.schedule(SimTime::from_secs(gap), fire(i / per_row, i % per_row));
            }
            group.bench_function(BenchmarkId::new("entry_per_stream", per_row), |b| {
                b.iter(|| {
                    let (t, head) = queue.pop().expect("every stream keeps an entry");
                    let at = head.row as usize * per_row + head.stream as usize;
                    let gap = exp_delay(&mut rngs[at], per_row as f64);
                    queue.schedule(t + SimTime::from_secs(gap), head);
                    std::hint::black_box(head.row)
                });
            });
        }
    }
    group.finish();
}

/// The meter cell `ww-cache` had before the three-word one: an `Option`
/// tag word beside the average, and a division for every closed window.
#[derive(Clone, Copy)]
struct FourWordCell {
    window_start: f64,
    count_in_window: u64,
    smoothed: Option<f64>,
}

impl FourWordCell {
    fn roll_to(&mut self, now: f64, window_secs: f64, alpha: f64) {
        while now >= self.window_start + window_secs {
            let rate = self.count_in_window as f64 / window_secs;
            self.smoothed = Some(match self.smoothed {
                None => rate,
                Some(v) => v + alpha * (rate - v),
            });
            self.count_in_window = 0;
            self.window_start += window_secs;
        }
    }

    fn record(&mut self, now: f64, window_secs: f64, alpha: f64) {
        self.roll_to(now, window_secs, alpha);
        self.count_in_window += 1;
    }
}

fn bench_meter_roll(c: &mut Criterion) {
    let mut group = c.benchmark_group("meter_roll");
    group
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
        .sample_size(10);
    let (window, alpha) = (1.0, 0.5);
    // Rows roll in id order, each once per window — the diffusion
    // timers' phase sweep: step `i` rolls row `i % ROWS` at the instant
    // its `i / ROWS + 1`-th window closes.
    let at = |step: usize| (step / ROWS + 1) as f64 * window;
    for &per_row in &[8usize, 70] {
        for busy in [false, true] {
            let name = if busy { "busy" } else { "quiet" };
            {
                let mut table = DenseFlowTable::new(window, alpha, ROWS, per_row);
                let mut step = 0;
                group.bench_function(BenchmarkId::new(name, per_row), |b| {
                    b.iter(|| {
                        let (row, now) = (step % ROWS, at(step));
                        step += 1;
                        if busy {
                            for k in 0..per_row as u32 {
                                table.record(row, k, now - 0.5 * window);
                            }
                        }
                        table.roll_row_to(row, now);
                        std::hint::black_box(table.rate(row, 0))
                    });
                });
            }
            {
                let fresh = FourWordCell {
                    window_start: 0.0,
                    count_in_window: 0,
                    smoothed: None,
                };
                let mut cells = vec![fresh; ROWS * per_row];
                let mut step = 0;
                let id = BenchmarkId::new(format!("{name}_four_word"), per_row);
                group.bench_function(id, |b| {
                    b.iter(|| {
                        let (row, now) = (step % ROWS, at(step));
                        step += 1;
                        let cells = &mut cells[row * per_row..(row + 1) * per_row];
                        if busy {
                            for cell in cells.iter_mut() {
                                cell.record(now - 0.5 * window, window, alpha);
                            }
                        }
                        for cell in cells.iter_mut() {
                            cell.roll_to(now, window, alpha);
                        }
                        std::hint::black_box(cells[0].smoothed)
                    });
                });
            }
        }
    }
    group.finish();
}

/// A wire-sized payload (timestamp, counter, event word).
type Msg = (f64, u64, u64);

const WINDOW: usize = 256;

fn bench_transfer(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_transfer");
    group
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
        .sample_size(10);

    // SPSC ring, published event by event.
    let (mut ptx, mut prx) = spsc::ring::<Msg>(4096);
    group.bench_function("spsc_per_event", |b| {
        b.iter(|| {
            for i in 0..WINDOW as u64 {
                ptx.push((i as f64, i, i)).expect("ring has room");
            }
            let mut sum = 0u64;
            while let Some((_, _, ev)) = prx.pop() {
                sum += ev;
            }
            std::hint::black_box(sum)
        });
    });

    // SPSC ring, one release store per lookahead window — the batched
    // hot path the parallel engine runs by default.
    let (mut btx, mut brx) = spsc::ring::<Msg>(4096);
    group.bench_function("spsc_batched_window", |b| {
        b.iter(|| {
            for i in 0..WINDOW as u64 {
                btx.stage((i as f64, i, i)).expect("ring has room");
            }
            btx.commit();
            let mut sum = 0u64;
            while let Some((_, _, ev)) = brx.pop() {
                sum += ev;
            }
            std::hint::black_box(sum)
        });
    });

    group.finish();
}

/// Simulated seconds the `packet_loop` worlds run before and while
/// they are timed. Events per simulated second drift for the first
/// ~25 s (copies move down the tree, then requests stop climbing), so
/// the timed window starts after that and is the same length on every
/// run, whatever the host's speed.
const LOOP_WARM_UP: f64 = 30.0;
/// `(regions, timed simulated seconds)` per world: ~10 M events each.
const LOOP_WINDOWS: [(usize, f64); 2] = [(60, 300.0), (180, 30.0)];

/// How many times each `packet_loop` world is built and timed.
const LOOP_REPETITIONS: usize = 5;

/// Not a criterion loop: criterion picks the iteration count from the
/// host's speed, and on a running engine that would move the timed
/// window in simulated time, so a faster build would be timed on later,
/// different seconds. Every repetition builds a fresh `PacketSim`, so
/// each times the same simulated window from the same state.
fn packet_loop() {
    for (regions, window) in LOOP_WINDOWS {
        let tree = ww_topology::two_level(regions, regions);
        let rates = ww_workload::leaf_only(&tree, 1.0);
        let mix = ww_workload::shared_zipf_mix(&tree, &rates, 8, 1.0);
        let name = format!("packet_loop/packet_sim/two_level_{regions}");
        let mut readings: Vec<f64> = (0..LOOP_REPETITIONS)
            .map(|rep| {
                let mut sim = PacketSim::new(&tree, &mix, PacketSimConfig::default());
                let before = sim.run(LOOP_WARM_UP).processed_events;
                let start = Instant::now();
                let after = sim.run(LOOP_WARM_UP + window).processed_events;
                let elapsed = start.elapsed();
                let events = std::hint::black_box(after) - before;
                let ns = elapsed.as_nanos() as f64 / events as f64;
                eprintln!(
                    "{name} #{rep}: {ns:.1} ns per event ({events} events, \
                     simulated seconds {LOOP_WARM_UP}..{})",
                    LOOP_WARM_UP + window
                );
                ns
            })
            .collect();
        readings.sort_by(f64::total_cmp);
        eprintln!(
            "{name}: median {:.1} ns per event of {LOOP_REPETITIONS}",
            readings[LOOP_REPETITIONS / 2]
        );
    }
}

fn bench(c: &mut Criterion) {
    bench_queues(c);
    bench_arrivals(c);
    bench_meter_roll(c);
    bench_transfer(c);
}

criterion_group!(benches, bench);

/// `packet_loop` alone when it is named on the command line, else every
/// group and then `packet_loop`.
fn main() {
    if !std::env::args().skip(1).any(|arg| arg == "packet_loop") {
        benches();
    }
    packet_loop();
}
