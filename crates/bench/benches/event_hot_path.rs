//! The PDES hot-path microbenches behind the `ww-pdes` transport/queue
//! rework:
//!
//! * `event_queue`: steady-state hold-and-churn (pop one, push one) on
//!   the `BinaryHeap`-backed `EventQueue` vs the monotone `RadixQueue`
//!   at 1k / 100k / 1M pending events — the near-monotone access
//!   pattern both packet engines generate.
//! * `wire_transfer`: per-event cost of moving a wire-sized message
//!   through the lock-free SPSC ring, per-event publish vs one batched
//!   commit per window.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use ww_sim::{EventQueue, RadixQueue, SimQueue, SimTime};

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

fn bench(c: &mut Criterion) {
    bench_queues(c);
    bench_transfer(c);
}

criterion_group!(benches, bench);
criterion_main!(benches);
