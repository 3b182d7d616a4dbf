//! Whole-device configuration.

use insider_detect::DetectorConfig;
use insider_ftl::FtlConfig;
use insider_nand::{Geometry, SimTime};

/// Configuration for a full [`SsdInsider`](crate::SsdInsider) device.
///
/// The FTL's delayed-deletion protection window is kept equal to the
/// detector's window (`slice × window_slices`): the recovery queue must hold
/// old versions at least as long as detection can take, or rollback would
/// have holes. The paper uses 1 s × 10 = 10 s for both.
#[derive(Debug, Clone)]
pub struct InsiderConfig {
    ftl: FtlConfig,
    detector: DetectorConfig,
}

impl InsiderConfig {
    /// Default configuration (paper parameters) over `geometry`.
    pub fn new(geometry: Geometry) -> Self {
        Self::from_parts(FtlConfig::new(geometry), DetectorConfig::default())
    }

    /// Builds from explicit FTL and detector configurations. The FTL's
    /// protection window is raised to cover the detection window if it was
    /// configured shorter — or not at all, so the device always retains;
    /// an explicitly longer retention is kept.
    pub fn from_parts(ftl: FtlConfig, detector: DetectorConfig) -> Self {
        let detection_window =
            SimTime::from_micros(detector.slice.as_micros() * detector.window_slices as u64);
        let window = ftl.window().unwrap_or(SimTime::ZERO).max(detection_window);
        InsiderConfig {
            ftl: ftl.protection_window(window),
            detector,
        }
    }

    /// The configured drive geometry.
    pub fn geometry(&self) -> &Geometry {
        self.ftl.geometry()
    }

    /// The FTL configuration.
    pub fn ftl(&self) -> &FtlConfig {
        &self.ftl
    }

    /// The detector configuration.
    pub fn detector(&self) -> &DetectorConfig {
        &self.detector
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ftl_window_covers_detection_window() {
        let cfg = InsiderConfig::new(Geometry::tiny());
        assert_eq!(cfg.ftl().window(), Some(SimTime::from_secs(10)));
    }

    #[test]
    fn custom_slice_length_scales_window() {
        let det = DetectorConfig {
            slice: SimTime::from_millis(500),
            window_slices: 6,
            threshold: 2,
        };
        // An FTL window shorter than the detection window is raised to it.
        let ftl = FtlConfig::new(Geometry::tiny()).protection_window(SimTime::from_secs(1));
        let cfg = InsiderConfig::from_parts(ftl, det);
        assert_eq!(cfg.ftl().window(), Some(SimTime::from_secs(3)));
        assert_eq!(cfg.detector().threshold, 2);
    }

    #[test]
    fn longer_configured_retention_is_kept() {
        let ftl = FtlConfig::new(Geometry::tiny()).protection_window(SimTime::from_secs(60));
        let cfg = InsiderConfig::from_parts(ftl, DetectorConfig::default());
        assert_eq!(cfg.ftl().window(), Some(SimTime::from_secs(60)));
    }

    #[test]
    fn a_drive_without_retention_is_given_the_detection_window() {
        let ftl = FtlConfig::new(Geometry::tiny()).protection_window(None);
        let cfg = InsiderConfig::from_parts(ftl, DetectorConfig::default());
        assert_eq!(cfg.ftl().window(), Some(SimTime::from_secs(10)));
    }
}
