//! Synthesis constraints.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The largest latency bound an [`Engine`](crate::Engine) job or sweep
/// may ask for, in control steps.
///
/// The scheduling and binding kernels size per-step tables by the
/// latency bound (the density and force-directed profiles, the pipelined
/// occupancy profile, the left-edge counts), and an allocation that
/// fails aborts the process rather than returning an error. At this
/// limit the largest of them, one `f64` per step, stays at 512 KiB. The
/// engine rejects a larger bound with
/// [`EngineError::LatencyLimit`](crate::EngineError::LatencyLimit)
/// before any synthesis.
pub const MAX_LATENCY: u32 = 65_536;

/// The latency and area bounds a design must meet (`Ld` and `Ad` in the
/// paper).
///
/// # Examples
///
/// ```
/// use rchls_core::Bounds;
///
/// let b = Bounds::new(11, 8); // the paper's Figure 7 bounds for FIR
/// assert_eq!(b.latency, 11);
/// assert_eq!(b.area, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Bounds {
    /// Maximum latency in clock cycles (`Ld`).
    pub latency: u32,
    /// Maximum total area in normalized units (`Ad`).
    pub area: u32,
}

impl Bounds {
    /// Creates a bound pair.
    ///
    /// # Panics
    ///
    /// Panics if either bound is zero (no nonempty design can meet it).
    #[must_use]
    pub fn new(latency: u32, area: u32) -> Bounds {
        assert!(latency > 0, "latency bound must be positive");
        assert!(area > 0, "area bound must be positive");
        Bounds { latency, area }
    }
}

impl fmt::Display for Bounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ld={}, Ad={}", self.latency, self.area)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(Bounds::new(10, 9).to_string(), "Ld=10, Ad=9");
    }

    #[test]
    #[should_panic(expected = "latency bound")]
    fn zero_latency_rejected() {
        let _ = Bounds::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "area bound")]
    fn zero_area_rejected() {
        let _ = Bounds::new(1, 0);
    }
}
