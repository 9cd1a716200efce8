//! Host-speed calibration.
//!
//! On a shared host the same request can take 15 ms in one minute and
//! 30 ms in the next while the program does exactly the same work
//! (identical counters, no page faults): neighbours on the physical
//! cores slow cache- and allocation-heavy code for seconds at a time.
//! Pure ALU loops barely notice; code that allocates small nodes,
//! interns strings and chases pointers does.
//!
//! The benchmark therefore measures a fixed reference kernel with that
//! profile — built into the benchmark, so no program change can alter
//! it — on every core between load slices, and scales each slice's
//! times by `NOMINAL_MS / kernel time`. A normalized time is the time
//! the request would have taken on a host where the kernel takes
//! `NOMINAL_MS`. Raw times are printed beside the normalized ones.

use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use crate::stats::median;

/// Reference kernel time the normalized figures are scaled to, ms
/// (about the kernel's median on a quiet 2-vCPU Xeon guest at 2 GHz).
pub const NOMINAL_MS: f64 = 5.0;

/// Kernel repetitions per thread at one calibration point.
const REPS: usize = 8;

struct Node {
    name: Rc<str>,
    text: String,
    kids: Vec<Rc<Node>>,
}

/// The reference kernel: build a forest of small reference-counted
/// nodes with interned names and formatted text, look names up in a
/// hash map, and serialize the forest. Returns a checksum so the work
/// cannot be optimized away.
pub fn kernel() -> usize {
    let mut interner: HashMap<String, Rc<str>> = HashMap::new();
    let mut intern = |s: String| -> Rc<str> {
        interner
            .entry(s)
            .or_insert_with_key(|k| Rc::from(k.as_str()))
            .clone()
    };
    let mut roots = Vec::with_capacity(200);
    for r in 0..200usize {
        let kids: Vec<Rc<Node>> = (0..60usize)
            .map(|k| {
                Rc::new(Node {
                    name: intern(format!("E{}", k % 24)),
                    text: format!("{}-{}", r * 31 + k, k * 7),
                    kids: Vec::new(),
                })
            })
            .collect();
        roots.push(Rc::new(Node {
            name: intern(format!("R{}", r % 8)),
            text: String::new(),
            kids,
        }));
    }
    let mut out = String::with_capacity(1 << 16);
    let mut sum = 0usize;
    for (i, root) in roots.iter().enumerate() {
        if i % 7 != 0 {
            continue;
        }
        out.clear();
        out.push('<');
        out.push_str(&root.name);
        out.push('>');
        for kid in &root.kids {
            out.push('<');
            out.push_str(&kid.name);
            out.push('>');
            out.push_str(&kid.text);
            out.push_str("</");
            out.push_str(&kid.name);
            out.push('>');
        }
        sum += out.len();
    }
    let kids: usize = roots
        .iter()
        .map(|r| r.kids.iter().map(|k| k.text.len()).sum::<usize>())
        .sum();
    sum + kids + arithmetic(ARITH_STEPS) as usize % 7
}

/// Register-only steps of the kernel. Register arithmetic hardly
/// slows when neighbours load the host; this share of it makes the
/// kernel as sensitive to their load as the program's requests are.
const ARITH_STEPS: u64 = 600_000;

/// A dependent xorshift chain: pure register work.
fn arithmetic(steps: u64) -> u64 {
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// Time the kernel `REPS` times on this thread, ms each.
pub fn kernel_times() -> Vec<f64> {
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(kernel());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// Time the kernel `REPS` times on each of `threads` threads at once
/// and return the median repetition time, ms.
pub fn measure(threads: usize) -> f64 {
    let times: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| scope.spawn(kernel_times))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("calibration thread panicked"))
            .collect()
    });
    median(&times)
}

/// Scale factor for an interval bracketed by calibrations `before`
/// and `after` (kernel times, ms): multiply a time by it to normalize.
pub fn factor(before: f64, after: f64) -> f64 {
    let observed = (before + after) / 2.0;
    if observed > 0.0 {
        NOMINAL_MS / observed
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_measurable() {
        assert_eq!(kernel(), kernel());
        assert!(measure(2) > 0.0);
        assert!((factor(NOMINAL_MS, NOMINAL_MS) - 1.0).abs() < 1e-12);
        assert!(factor(2.0 * NOMINAL_MS, 2.0 * NOMINAL_MS) < 0.51);
    }
}
