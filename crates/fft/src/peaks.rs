//! Top-K peak extraction over a correlation surface — Fig 2's max
//! reduction widened to the `k` strongest *distinct* maxima.
//!
//! One extractor serves every transform path: the complex surface ranks
//! by `|·|²`, the real (c2r) surface by `|·|`, and the simulated device
//! runs the same code inside its kernel. The magnitude function is a
//! generic parameter, so each path gets its own monomorphized loop with
//! no per-element dynamic dispatch.

/// Chebyshev radius within which two maxima count as the same peak.
pub const PEAK_SUPPRESSION_RADIUS: usize = 2;

/// Extracts up to `k` distinct maxima of `magnitude(data[i])`, strongest
/// first, treating `data` as a row-major surface of width `width`. A
/// maximum within [`PEAK_SUPPRESSION_RADIUS`] (Chebyshev) of a stronger
/// one is suppressed. Returned values are the raw magnitudes.
///
/// Single pass with a small insertion buffer — `O(n·k)` worst case, and
/// `k` is single digits. `cand` is the gather buffer and `out` receives
/// the result; both are cleared on entry and keep their capacity, so
/// reusing them makes the steady state allocation-free.
pub fn top_k_into<T>(
    data: &[T],
    width: usize,
    k: usize,
    magnitude: impl Fn(&T) -> f64,
    cand: &mut Vec<(usize, f64)>,
    out: &mut Vec<(usize, f64)>,
) {
    // Gather generously (peaks can shadow each other inside the
    // suppression radius), then suppress.
    let gather = (4 * k).max(16);
    cand.clear();
    cand.reserve(gather + 1);
    let mut floor = f64::MIN;
    for (i, v) in data.iter().enumerate() {
        let m = magnitude(v);
        if m <= floor {
            continue;
        }
        let pos = cand.partition_point(|&(_, cm)| cm >= m);
        cand.insert(pos, (i, m));
        if cand.len() > gather {
            cand.pop();
            floor = cand.last().unwrap().1;
        }
    }
    let r = PEAK_SUPPRESSION_RADIUS as i64;
    out.clear();
    out.reserve(k.min(gather));
    'cands: for &(i, m) in cand.iter() {
        let (x, y) = ((i % width) as i64, (i / width) as i64);
        for &(j, _) in out.iter() {
            let (px, py) = ((j % width) as i64, (j / width) as i64);
            if (x - px).abs() <= r && (y - py).abs() <= r {
                continue 'cands;
            }
        }
        out.push((i, m));
        if out.len() == k {
            break;
        }
    }
}

/// Allocating convenience form of [`top_k_into`].
pub fn top_k<T>(
    data: &[T],
    width: usize,
    k: usize,
    magnitude: impl Fn(&T) -> f64,
) -> Vec<(usize, f64)> {
    let mut cand = Vec::new();
    let mut out = Vec::new();
    top_k_into(data, width, k, magnitude, &mut cand, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_real_peaks_suppression() {
        let mut data = vec![0.0f64; 100]; // 10x10
        data[5 * 10 + 5] = 10.0;
        data[5 * 10 + 6] = 9.0; // within radius — suppressed
        data[10 + 1] = 8.0;
        let peaks = top_k(&data, 10, 3, |v| v.abs());
        assert_eq!(peaks[0].0, 55);
        assert_eq!(peaks[1].0, 11);
    }
}
