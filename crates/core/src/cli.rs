//! The five scan flags shared by `urhunter` and `urhunterd`.
//!
//! Both binaries hand every argument their own parser does not know to
//! [`ScanFlags::parse_flag`], which checks its range and names the flag in
//! any error, and build their [`HunterConfig`] through
//! [`ScanFlags::apply`] — the only place these flags reach a config. Both
//! print [`USAGE`] on `--help`.

use crate::pipeline::HunterConfig;
use simnet::{FaultPlan, SimDuration};
use std::ops::RangeBounds;
use std::str::FromStr;

/// The scan-flag block of both binaries' `--help` text.
pub const USAGE: &str = "\
SCAN FLAGS (shared by urhunter and urhunterd):
    --workers N            scan workers, 1..=64 (default: sized from the
                           machine); each claims shards of the scan and
                           probes them on replica fabrics of its own
    --retries N            attempts per probe, >= 1 (default 3)
    --timeout MS           simulated per-attempt timeout in ms, > 0
                           (default 5000)
    --fault-drop P         drop probability P in [0, 1] on the collection
                           stages
    --adaptive             RTT-derived per-attempt timeouts
    --workers and --adaptive change wall or simulated time only: the
    classified output is bit-identical.
";

/// The scan flags one command line set; an absent flag leaves the
/// config's own value.
#[derive(Debug, Clone, Default)]
pub struct ScanFlags {
    /// `--workers N`.
    pub workers: Option<usize>,
    /// `--retries N`.
    pub(crate) retries: Option<u32>,
    /// `--timeout MS`.
    pub(crate) timeout_ms: Option<u64>,
    /// `--fault-drop P`.
    pub(crate) fault_drop: Option<f64>,
    /// `--adaptive`.
    pub(crate) adaptive: bool,
}

/// Take `flag`'s value from `rest` and require it to parse into `range`;
/// the error names the flag. `urhunter` parses its own numeric flags with
/// it too.
pub fn value<T: FromStr + PartialOrd, S: AsRef<str>>(
    flag: &str,
    rest: &mut impl Iterator<Item = S>,
    range: impl RangeBounds<T>,
    what: &str,
) -> Result<T, String> {
    let raw = rest
        .next()
        .ok_or_else(|| format!("{flag} requires a value"))?;
    let raw = raw.as_ref();
    raw.parse()
        .ok()
        .filter(|n| range.contains(n))
        .ok_or_else(|| format!("{flag} must be {what} (got {raw:?})"))
}

impl ScanFlags {
    /// Record `flag` if it is one of the five scan flags, taking its value
    /// from `rest`: `Ok(true)` when it was, `Ok(false)` when it is some
    /// other flag, and an error naming the flag for a missing or
    /// out-of-range value.
    pub fn parse_flag<S: AsRef<str>>(
        &mut self,
        flag: &str,
        rest: &mut impl Iterator<Item = S>,
    ) -> Result<bool, String> {
        match flag {
            "--workers" => self.workers = Some(value(flag, rest, 1..=64, "within 1..=64")?),
            "--retries" => self.retries = Some(value(flag, rest, 1.., "at least 1")?),
            "--timeout" => self.timeout_ms = Some(value(flag, rest, 1.., "a positive number")?),
            "--fault-drop" => self.fault_drop = Some(value(flag, rest, 0.0..=1.0, "in [0, 1]")?),
            "--adaptive" => self.adaptive = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// `cfg` with every flag that was given applied.
    pub fn apply(&self, mut cfg: HunterConfig) -> HunterConfig {
        if let Some(n) = self.workers {
            cfg = cfg.with_workers(n);
        }
        if let Some(n) = self.retries {
            cfg = cfg.with_retries(n);
        }
        if let Some(ms) = self.timeout_ms {
            cfg = cfg.with_timeout(SimDuration::from_millis(ms));
        }
        if let Some(p) = self.fault_drop {
            cfg = cfg.with_scan_faults(FaultPlan::lossy(p));
        }
        if self.adaptive {
            cfg = cfg.with_adaptive();
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ScanFlags, String> {
        let mut flags = ScanFlags::default();
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            assert!(flags.parse_flag(flag, &mut rest)?, "{flag} is a scan flag");
        }
        Ok(flags)
    }

    #[test]
    fn each_flag_sets_only_the_field_it_names() {
        let base = HunterConfig::fast;
        let with = |edit: fn(&mut HunterConfig)| {
            let mut cfg = base();
            edit(&mut cfg);
            cfg
        };
        for (args, expected) in [
            (&["--workers", "1"][..], with(|c| c.workers = 1)),
            (&["--workers", "64"], with(|c| c.workers = 64)),
            (&["--retries", "5"], with(|c| c.retry.attempts = 5)),
            (
                &["--timeout", "250"],
                with(|c| c.retry.timeout = SimDuration::from_millis(250)),
            ),
            (
                &["--fault-drop", "0.1"],
                with(|c| c.scan_faults = Some(FaultPlan::lossy(0.1))),
            ),
            (&["--adaptive"], with(|c| c.retry.adaptive = true)),
        ] {
            let got = parse(args).expect("valid flag").apply(base());
            assert_eq!(format!("{got:?}"), format!("{expected:?}"), "{args:?}");
            assert_ne!(format!("{got:?}"), format!("{:?}", base()), "{args:?}");
        }
        assert_eq!(
            format!("{:?}", ScanFlags::default().apply(base())),
            format!("{:?}", base())
        );
    }

    #[test]
    fn a_huge_timeout_saturates_instead_of_wrapping() {
        // 18446744073709552 ms is one past u64::MAX µs / 1000.
        let cfg = parse(&["--timeout", "18446744073709552"])
            .expect("a positive number")
            .apply(HunterConfig::fast());
        assert!(cfg.retry.timeout.as_micros() >= u64::MAX / 1_000 * 1_000);
    }

    #[test]
    fn out_of_range_values_are_rejected_naming_the_flag() {
        for args in [
            &["--workers", "0"][..],
            &["--workers", "65"],
            &["--workers", "many"],
            &["--workers", "-3"],
            &["--retries", "0"],
            &["--timeout", "0"],
            &["--timeout", "1.5"],
            &["--fault-drop", "1.5"],
            &["--fault-drop", "NaN"],
        ] {
            let err = parse(args).expect_err("must be rejected");
            assert!(err.contains(args[0]), "error for {args:?}: {err}");
        }
    }
}
