//! Severity detection: EWMA anomaly fusion with hysteresis.

/// Discrete threat levels, ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum ThreatLevel {
    /// Background noise only.
    #[default]
    Low,
    /// Elevated anomaly rates.
    Elevated,
    /// Likely active attacker.
    High,
    /// Confirmed ongoing intrusion attempts.
    Critical,
}

impl ThreatLevel {
    /// All levels, ascending.
    pub const ALL: [ThreatLevel; 4] =
        [ThreatLevel::Low, ThreatLevel::Elevated, ThreatLevel::High, ThreatLevel::Critical];
}

/// One sampling window of anomaly counters, as produced by the SoC's
/// protocol and hardware monitors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnomalySample {
    /// Messages whose MAC/UI verification failed.
    pub mac_failures: u32,
    /// Request-patience timeouts (possible primary attacks / crashes).
    pub timeouts: u32,
    /// Detected equivocation attempts (conflicting proposals observed).
    pub equivocations: u32,
    /// Corrected/detected SEUs in protected registers.
    pub seu_events: u32,
}

/// Weight of MAC verification failures (strong intrusion signal).
const WEIGHT_MAC: f64 = 2.0;
/// Weight of timeouts (weak signal; also benign congestion).
const WEIGHT_TIMEOUT: f64 = 0.5;
/// Weight of equivocation detections (very strong signal).
const WEIGHT_EQUIVOCATION: f64 = 4.0;
/// Weight of SEU events (environment signal).
const WEIGHT_SEU: f64 = 0.25;
/// EWMA smoothing factor in `(0, 1]`; higher = more reactive.
const ALPHA: f64 = 0.3;
/// Score thresholds for Elevated / High / Critical.
const THRESHOLDS: [f64; 3] = [1.0, 4.0, 10.0];
/// Fractional hysteresis: to *drop* a level the score must fall below
/// `threshold * (1 - HYSTERESIS)`.
const HYSTERESIS: f64 = 0.3;

const _: () = assert!(THRESHOLDS[0] < THRESHOLDS[1] && THRESHOLDS[1] < THRESHOLDS[2]);

impl AnomalySample {
    fn score(&self) -> f64 {
        self.mac_failures as f64 * WEIGHT_MAC
            + self.timeouts as f64 * WEIGHT_TIMEOUT
            + self.equivocations as f64 * WEIGHT_EQUIVOCATION
            + self.seu_events as f64 * WEIGHT_SEU
    }
}

/// EWMA threat detector with hysteresis.
#[derive(Debug, Clone, Default)]
pub struct ThreatDetector {
    ewma: f64,
    level: ThreatLevel,
    observations: u64,
}

impl ThreatDetector {
    /// Creates a detector at `Low` with zero score.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one sampling window; returns the (possibly unchanged) level.
    pub fn observe(&mut self, sample: AnomalySample) -> ThreatLevel {
        self.observations += 1;
        self.ewma = ALPHA * sample.score() + (1.0 - ALPHA) * self.ewma;
        self.level = self.classify();
        self.level
    }

    fn classify(&self) -> ThreatLevel {
        // Rising edges use raw thresholds; falling edges the hysteresis ones.
        let raw = if self.ewma >= THRESHOLDS[2] {
            ThreatLevel::Critical
        } else if self.ewma >= THRESHOLDS[1] {
            ThreatLevel::High
        } else if self.ewma >= THRESHOLDS[0] {
            ThreatLevel::Elevated
        } else {
            ThreatLevel::Low
        };
        // Dropping: only if we cleared the hysteresis band of each level in
        // between.
        let mut lvl = self.level.max(raw);
        while lvl > raw && self.ewma < THRESHOLDS[lvl as usize - 1] * (1.0 - HYSTERESIS) {
            lvl = ThreatLevel::ALL[lvl as usize - 1]; // one level down
        }
        lvl
    }

    /// Current level.
    pub fn level(&self) -> ThreatLevel {
        self.level
    }

    /// Current smoothed score.
    pub fn score(&self) -> f64 {
        self.ewma
    }

    /// Windows observed.
    pub fn observations(&self) -> u64 {
        self.observations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet() -> AnomalySample {
        AnomalySample::default()
    }

    #[test]
    fn starts_low_and_stays_low_when_quiet() {
        let mut d = ThreatDetector::new();
        for _ in 0..50 {
            assert_eq!(d.observe(quiet()), ThreatLevel::Low);
        }
        assert_eq!(d.score(), 0.0);
    }

    #[test]
    fn escalates_under_attack_signals() {
        let mut d = ThreatDetector::new();
        for _ in 0..30 {
            d.observe(AnomalySample { equivocations: 3, mac_failures: 4, ..Default::default() });
        }
        assert_eq!(d.level(), ThreatLevel::Critical);
    }

    #[test]
    fn mild_noise_reaches_elevated_not_critical() {
        let mut d = ThreatDetector::new();
        for _ in 0..30 {
            d.observe(AnomalySample { timeouts: 3, ..Default::default() });
        }
        assert!(d.level() >= ThreatLevel::Elevated);
        assert!(d.level() < ThreatLevel::Critical);
    }

    #[test]
    fn hysteresis_delays_deescalation() {
        let mut d = ThreatDetector::new();
        for _ in 0..30 {
            d.observe(AnomalySample { equivocations: 2, ..Default::default() });
        }
        let peak = d.level();
        assert!(peak >= ThreatLevel::High);
        // One quiet window: EWMA decays but hysteresis holds the level.
        let immediately_after = d.observe(quiet());
        assert!(immediately_after >= ThreatLevel::High, "level must not collapse instantly");
        // Sustained quiet eventually de-escalates fully.
        for _ in 0..60 {
            d.observe(quiet());
        }
        assert_eq!(d.level(), ThreatLevel::Low);
    }

    #[test]
    fn seu_events_alone_signal_environment_not_intrusion() {
        let mut d = ThreatDetector::new();
        for _ in 0..30 {
            d.observe(AnomalySample { seu_events: 2, ..Default::default() });
        }
        assert!(d.level() <= ThreatLevel::Elevated);
    }
}
