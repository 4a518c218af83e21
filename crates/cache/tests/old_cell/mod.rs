//! The four-word meter cell `ww-cache` shipped before the three-word
//! one, formula and `Option` tag and all: the reference the roll
//! properties (`meter::tests` and `tests/props.rs`) hold the live cell
//! to, bit for bit. Not part of the library.

/// `window_start`, the open count, and the smoothed rate behind an
/// `Option` tag: 32 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OldCell {
    pub window_start: f64,
    pub count_in_window: u64,
    pub smoothed: Option<f64>,
}

impl OldCell {
    pub fn anchored(start: f64) -> Self {
        OldCell {
            window_start: start,
            count_in_window: 0,
            smoothed: None,
        }
    }

    /// Every closed window divides, quiet or not.
    pub fn roll_to(&mut self, now: f64, window_secs: f64, alpha: f64) {
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

    pub fn record(&mut self, now: f64, window_secs: f64, alpha: f64) {
        self.roll_to(now, window_secs, alpha);
        self.count_in_window += 1;
    }

    pub fn rate_or_zero(&self) -> f64 {
        self.smoothed.unwrap_or(0.0)
    }

    pub fn reset(&mut self) {
        self.count_in_window = 0;
        self.smoothed = None;
    }
}
