//! The eight scan flags shared by `urhunter` and `urhunterd`.
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
    --shards N             bulk-scan shards: replica fabrics partitioned by
                           nameserver, 1..=64 (default: one per worker, and
                           N is a floor on that; 8 world shards on urhunter
                           --world paper|xl; 1 under --ethics and, on a
                           materialized world, --rate-limit)
    --workers N            scan workers claiming shards, 1..=64
                           (default: sized from the machine)
    --retries N            attempts per probe, >= 1 (default 3)
    --timeout MS           simulated per-attempt timeout in ms, > 0
                           (default 5000)
    --fault-drop P         drop probability P in [0, 1] on the collection
                           stages
    --adaptive             RTT-derived per-attempt timeouts and RTT-ordered
                           scan rounds
    --rtt-k N              variance multiplier of the derived timeout, >= 1
                           (default 4)
    --rate-limit N         cap the scan at N probes per simulated second, > 0
    Workers, --adaptive, --rtt-k and --rate-limit change wall or simulated
    time only: the classified output is bit-identical. So does --shards,
    except on --world paper|xl, where the world-shard count fixes the scan
    order and so is part of the run's identity.
";

/// The scan flags one command line set; an absent flag leaves the
/// config's own value.
#[derive(Debug, Clone, Default)]
pub struct ScanFlags {
    /// `--shards N`.
    pub shards: Option<usize>,
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
    /// `--rtt-k N`.
    pub(crate) rtt_k: Option<u32>,
    /// `--rate-limit N`.
    pub(crate) rate_limit: Option<u64>,
}

/// Take `flag`'s value from `rest` and require it to parse into `range`;
/// the error names the flag.
fn value<T: FromStr + PartialOrd, S: AsRef<str>>(
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
    /// Record `flag` if it is one of the eight scan flags, taking its value
    /// from `rest`: `Ok(true)` when it was, `Ok(false)` when it is some
    /// other flag, and an error naming the flag for a missing or
    /// out-of-range value.
    pub fn parse_flag<S: AsRef<str>>(
        &mut self,
        flag: &str,
        rest: &mut impl Iterator<Item = S>,
    ) -> Result<bool, String> {
        match flag {
            "--shards" => self.shards = Some(value(flag, rest, 1..=64, "within 1..=64")?),
            "--workers" => self.workers = Some(value(flag, rest, 1..=64, "within 1..=64")?),
            "--retries" => self.retries = Some(value(flag, rest, 1.., "at least 1")?),
            "--timeout" => self.timeout_ms = Some(value(flag, rest, 1.., "a positive number")?),
            "--fault-drop" => self.fault_drop = Some(value(flag, rest, 0.0..=1.0, "in [0, 1]")?),
            "--adaptive" => self.adaptive = true,
            "--rtt-k" => self.rtt_k = Some(value(flag, rest, 1.., "at least 1")?),
            "--rate-limit" => self.rate_limit = Some(value(flag, rest, 1.., "a positive number")?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// `cfg` with every flag that was given applied.
    pub fn apply(&self, mut cfg: HunterConfig) -> HunterConfig {
        if let Some(n) = self.shards {
            cfg = cfg.with_shards(n);
        }
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
            cfg = cfg.with_scan_faults(FaultPlan::lossy(p).scheduled_per_flow());
        }
        if self.adaptive {
            cfg = cfg.with_adaptive();
        }
        if let Some(k) = self.rtt_k {
            cfg = cfg.with_rtt_k(k);
        }
        if let Some(n) = self.rate_limit {
            cfg = cfg.with_rate_limit_per_sec(n);
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
            (&["--shards", "4"][..], with(|c| c.shards = 4)),
            (&["--workers", "1"], with(|c| c.workers = 1)),
            (&["--workers", "64"], with(|c| c.workers = 64)),
            (&["--retries", "5"], with(|c| c.retry.attempts = 5)),
            (
                &["--timeout", "250"],
                with(|c| c.retry.timeout = SimDuration::from_millis(250)),
            ),
            (
                &["--fault-drop", "0.1"],
                with(|c| c.scan_faults = Some(FaultPlan::lossy(0.1).scheduled_per_flow())),
            ),
            (&["--adaptive"], with(|c| c.retry.adaptive = true)),
            (&["--rtt-k", "6"], with(|c| c.retry.rtt_k = 6)),
            (
                &["--rate-limit", "2"],
                with(|c| c.rate_limit_interval = SimDuration::from_millis(500)),
            ),
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
    fn out_of_range_values_are_rejected_naming_the_flag() {
        for args in [
            &["--shards", "0"][..],
            &["--shards", "65"],
            &["--workers", "0"],
            &["--workers", "65"],
            &["--workers", "many"],
            &["--workers", "-3"],
            &["--retries", "0"],
            &["--timeout", "0"],
            &["--timeout", "1.5"],
            &["--fault-drop", "1.5"],
            &["--fault-drop", "NaN"],
            &["--rtt-k", "0"],
            &["--rate-limit", "0"],
            &["--rate-limit"],
        ] {
            let err = parse(args).expect_err("must be rejected");
            assert!(err.contains(args[0]), "error for {args:?}: {err}");
        }
    }
}
