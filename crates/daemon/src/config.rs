//! Daemon flag parsing and validation.
//!
//! Mirrors the `urhunter` CLI's posture: every flag that can be
//! nonsensical is rejected up front with a one-line error naming the flag
//! and the accepted range, and the process exits 2 before binding a
//! socket or generating a world.

use crate::driver::{DriverConfig, WorldScale};
use crate::service::DaemonConfig;
use std::time::Duration;

/// The usage text printed on `--help` and flag errors.
pub const USAGE: &str = "\
urhunterd: resident UR scanning daemon

USAGE:
    urhunterd [OPTIONS]

OPTIONS:
    --listen ADDR          bind the HTTP control plane here
                           (default 127.0.0.1:7353; port 0 picks a free port)
    --max-epochs N         stop scanning after N epochs, N >= 1
                           (default: scan until /shutdown)
    --epoch-interval SECS  simulated seconds between epoch starts, > 0
                           (default 3600)
    --wall-interval-ms MS  wall-clock pause between epochs (default 0)
    --scale NAME           world preset: small | default | medium
                           (default small)
    --seed N               world seed override
    --drift-days N         calendar days of churn before each re-scan
                           (default 30)
    --new-campaigns N      campaigns planted per drift step (default 25)
    --expire-fraction F    fraction of campaigns expiring per drift step,
                           0 <= F <= 1 (default 0.3)
    --shards N             fabric shards, 1..=64 (default 1)
    --workers N            scan workers claiming shards, N >= 1
                           (default: sized from the machine)
    --retries N            probe attempts per query, N >= 1
    --timeout SECS         simulated probe timeout, > 0
    --help                 print this text
";

fn need_value<'a>(
    flag: &str,
    iter: &mut std::slice::Iter<'a, String>,
) -> Result<&'a String, String> {
    iter.next()
        .ok_or_else(|| format!("urhunterd: {flag} requires a value"))
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str, what: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("urhunterd: {flag} must be {what}, got {value:?}"))
}

/// Parse daemon flags (everything after the program name). Returns the
/// validated configuration or a one-line error message; `--help` is
/// surfaced as `Err(USAGE)` so the binary can print-and-exit-0.
pub fn parse_flags(args: &[String]) -> Result<DaemonConfig, String> {
    let mut cfg = DaemonConfig {
        listen: DaemonConfig::default_listen(),
        max_epochs: None,
        wall_interval: Duration::ZERO,
        driver: DriverConfig::small(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--help" | "-h" => return Err(USAGE.to_string()),
            "--listen" => {
                let v = need_value(arg, &mut iter)?;
                cfg.listen = v.parse().map_err(|_| {
                    format!("urhunterd: --listen must be an IP:PORT socket address, got {v:?}")
                })?;
            }
            "--max-epochs" => {
                let v = need_value(arg, &mut iter)?;
                let n: u64 = parse_num(arg, v, "an integer >= 1")?;
                if n == 0 {
                    return Err(
                        "urhunterd: --max-epochs must be >= 1 (omit the flag to scan forever)"
                            .to_string(),
                    );
                }
                cfg.max_epochs = Some(n);
            }
            "--epoch-interval" => {
                let v = need_value(arg, &mut iter)?;
                let secs: u64 = parse_num(arg, v, "a positive number of simulated seconds")?;
                if secs == 0 {
                    return Err(
                        "urhunterd: --epoch-interval must be > 0 simulated seconds".to_string()
                    );
                }
                cfg.driver.epoch_interval = simnet::SimDuration::from_secs(secs);
            }
            "--wall-interval-ms" => {
                let v = need_value(arg, &mut iter)?;
                let ms: u64 = parse_num(arg, v, "a number of milliseconds")?;
                cfg.wall_interval = Duration::from_millis(ms);
            }
            "--scale" => {
                let v = need_value(arg, &mut iter)?;
                cfg.driver.scale = WorldScale::parse(v).ok_or_else(|| {
                    format!("urhunterd: --scale must be small, default, or medium, got {v:?}")
                })?;
            }
            "--seed" => {
                let v = need_value(arg, &mut iter)?;
                cfg.driver.seed = Some(parse_num(arg, v, "an integer seed")?);
            }
            "--drift-days" => {
                let v = need_value(arg, &mut iter)?;
                cfg.driver.drift_days = parse_num(arg, v, "a number of days")?;
            }
            "--new-campaigns" => {
                let v = need_value(arg, &mut iter)?;
                cfg.driver.new_campaigns = parse_num(arg, v, "a campaign count")?;
            }
            "--expire-fraction" => {
                let v = need_value(arg, &mut iter)?;
                let f: f64 = parse_num(arg, v, "a fraction in [0, 1]")?;
                if !(0.0..=1.0).contains(&f) {
                    return Err(format!(
                        "urhunterd: --expire-fraction must be within [0, 1], got {v}"
                    ));
                }
                cfg.driver.expire_fraction = f;
            }
            "--shards" => {
                let v = need_value(arg, &mut iter)?;
                let n: usize = parse_num(arg, v, "a shard count in 1..=64")?;
                if !(1..=64).contains(&n) {
                    return Err(format!(
                        "urhunterd: --shards must be within 1..=64, got {v}"
                    ));
                }
                cfg.driver.hunter = cfg.driver.hunter.with_shards(n);
            }
            "--workers" => {
                let v = need_value(arg, &mut iter)?;
                let n: usize = parse_num(arg, v, "a worker count >= 1")?;
                if n == 0 {
                    return Err("urhunterd: --workers must be >= 1".to_string());
                }
                cfg.driver.hunter = cfg.driver.hunter.with_workers(n);
            }
            "--retries" => {
                let v = need_value(arg, &mut iter)?;
                let n: u32 = parse_num(arg, v, "an attempt count >= 1")?;
                if n == 0 {
                    return Err(
                        "urhunterd: --retries must be >= 1 (at least the initial attempt)"
                            .to_string(),
                    );
                }
                cfg.driver.hunter = cfg.driver.hunter.with_retries(n);
            }
            "--timeout" => {
                let v = need_value(arg, &mut iter)?;
                let secs: u64 = parse_num(arg, v, "a positive number of simulated seconds")?;
                if secs == 0 {
                    return Err("urhunterd: --timeout must be > 0 simulated seconds".to_string());
                }
                cfg.driver.hunter = cfg
                    .driver
                    .hunter
                    .with_timeout(simnet::SimDuration::from_secs(secs));
            }
            other => {
                return Err(format!("urhunterd: unknown flag {other:?} (try --help)"));
            }
        }
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_parse() {
        let cfg = parse_flags(&[]).expect("empty flags are the default posture");
        assert_eq!(cfg.listen, DaemonConfig::default_listen());
        assert_eq!(cfg.max_epochs, None);
        assert_eq!(cfg.driver.scale, WorldScale::Small);
    }

    #[test]
    fn full_flag_set_parses() {
        let cfg = parse_flags(&flags(&[
            "--listen",
            "127.0.0.1:0",
            "--max-epochs",
            "3",
            "--epoch-interval",
            "600",
            "--scale",
            "medium",
            "--seed",
            "99",
            "--drift-days",
            "240",
            "--new-campaigns",
            "40",
            "--expire-fraction",
            "0.5",
            "--shards",
            "4",
            "--workers",
            "2",
        ]))
        .expect("valid flags");
        assert_eq!(cfg.listen.port(), 0);
        assert_eq!(cfg.max_epochs, Some(3));
        assert_eq!(
            cfg.driver.epoch_interval,
            simnet::SimDuration::from_secs(600)
        );
        assert_eq!(cfg.driver.scale, WorldScale::Medium);
        assert_eq!(cfg.driver.seed, Some(99));
        assert_eq!(cfg.driver.drift_days, 240);
        assert_eq!(cfg.driver.new_campaigns, 40);
        assert_eq!(cfg.driver.expire_fraction, 0.5);
        assert_eq!(cfg.driver.hunter.shards, 4);
        assert_eq!(cfg.driver.hunter.workers, 2);
    }

    #[test]
    fn bad_flags_are_rejected_with_the_flag_name() {
        for (args, needle) in [
            (vec!["--listen", "not-an-addr"], "--listen"),
            (vec!["--max-epochs", "0"], "--max-epochs"),
            (vec!["--epoch-interval", "0"], "--epoch-interval"),
            (vec!["--expire-fraction", "1.5"], "--expire-fraction"),
            (vec!["--shards", "65"], "--shards"),
            (vec!["--workers", "0"], "--workers"),
            (vec!["--retries", "0"], "--retries"),
            (vec!["--timeout", "0"], "--timeout"),
            (vec!["--scale", "galactic"], "--scale"),
            (vec!["--wat"], "--wat"),
            (vec!["--seed"], "--seed"),
        ] {
            let err = parse_flags(&flags(&args)).expect_err("must be rejected");
            assert!(
                err.contains(needle),
                "error for {args:?} must name the flag: {err}"
            );
        }
    }

    #[test]
    fn help_surfaces_usage() {
        let err = parse_flags(&flags(&["--help"])).expect_err("help is not a config");
        assert!(err.contains("USAGE"));
        assert!(err.contains("--epoch-interval"));
    }
}
