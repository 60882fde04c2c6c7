//! The Appendix-C hosting-strategy audit: probe each provider with two
//! test accounts and reconstruct its Table 2 row from observed behaviour
//! (not from its configured policy — the probe must *discover* it).

use authdns::{DomainClass, HostError, ZoneId};
use dnswire::{Name, RData, Record, RecordType};
use std::net::Ipv4Addr;
use worldgen::World;

/// One reconstructed Table 2 row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditRow {
    /// Provider name.
    pub provider: String,
    /// Inferred allocation policy: `global-fixed`, `account-fixed` or
    /// `random`.
    pub allocation: &'static str,
    /// Hosted and served a domain without any ownership verification.
    pub hosting_without_verification: bool,
    /// Accepted an unregistered domain.
    pub unregistered: bool,
    /// Accepted a subdomain of an SLD.
    pub subdomain: bool,
    /// Accepted a registered SLD.
    pub(crate) sld: bool,
    /// Accepted an eTLD (public suffix).
    pub(crate) etld: bool,
    /// One account could create duplicate zones for the same domain.
    pub(crate) dup_single_user: bool,
    /// Two accounts could host the same domain.
    pub(crate) dup_cross_user: bool,
    /// No retrieval mechanism exists for the legitimate owner.
    pub(crate) no_retrieval: bool,
}

impl AuditRow {
    /// The eight yes/no cells in Table 2's column order, after the
    /// allocation column: hosting without verification, unregistered,
    /// subdomain, SLD, eTLD, duplicate single-user, duplicate cross-user,
    /// no retrieval.
    pub fn cells(&self) -> [bool; 8] {
        [
            self.hosting_without_verification,
            self.unregistered,
            self.subdomain,
            self.sld,
            self.etld,
            self.dup_single_user,
            self.dup_cross_user,
            self.no_retrieval,
        ]
    }

    /// Render in Table 2's column order.
    pub fn render(&self) -> String {
        let mut s = format!("{:<16} {:<14}", self.provider, self.allocation);
        let labels = [
            "verif-less",
            "unreg",
            "subdom",
            "sld",
            "etld",
            "dup-single",
            "dup-cross",
            "no-retrieval",
        ];
        for (label, cell) in labels.into_iter().zip(self.cells()) {
            s += &format!(" {label}:{}", if cell { "yes" } else { "no " });
        }
        s
    }
}

/// Pick `n` registered domains that are not already hosted at provider
/// `p_idx` and not on its reserved list (the probe needs clean targets).
fn probe_domains(world: &World, p_idx: usize, n: usize) -> Vec<Name> {
    let p = world.providers[p_idx].borrow();
    world
        .tranco
        .domains()
        .iter()
        .rev() // least-popular first: avoids reserved lists
        .filter(|d| p.zones_for(d).is_empty() && !p.policy().is_reserved(d))
        .take(n)
        .cloned()
        .collect()
}

/// Audit one provider. The probe follows Appendix C: sign up two accounts,
/// attempt to claim each domain class, configure a harmless A record
/// (127.0.0.1) and a TXT record declaring intent, verify over the wire,
/// and deactivate every test zone afterwards.
pub(crate) fn audit_provider(world: &mut World, p_idx: usize) -> AuditRow {
    let name = world.provider_meta[p_idx].name.clone();
    let domains = probe_domains(world, p_idx, 6);
    assert!(
        domains.len() >= 6,
        "not enough clean probe domains for {name}"
    );
    let mut cleanup: Vec<ZoneId> = Vec::new();

    let (acct1, acct2) = {
        let mut p = world.providers[p_idx].borrow_mut();
        (p.create_account(), p.create_account())
    };

    // --- Hosting without verification + wire check -----------------------
    let probe_a = &domains[0];
    let hosted = {
        let mut p = world.providers[p_idx].borrow_mut();
        p.host_domain(acct1, probe_a, DomainClass::RegisteredSld)
            .ok()
            .map(|zid| {
                p.add_record(
                    zid,
                    Record::new(probe_a.clone(), 60, RData::A(Ipv4Addr::LOCALHOST)),
                );
                p.add_record(
                    zid,
                    Record::new(
                        probe_a.clone(),
                        60,
                        RData::txt_from_str("ur-audit probe; harmless; contact research@example"),
                    ),
                );
                (zid, p.serving_nameservers(zid))
            })
    };
    let mut hosting_without_verification = false;
    let mut sld = false;
    if let Some((zid, serving)) = hosted {
        sld = true;
        cleanup.push(zid);
        if let Some((_, ns_ip)) = serving.first() {
            if let Some(resp) = authdns::dns_query(
                &mut world.net,
                Ipv4Addr::new(10, 0, 0, 9),
                *ns_ip,
                probe_a,
                RecordType::A,
                0x7A01,
            ) {
                hosting_without_verification = resp
                    .answers
                    .iter()
                    .any(|r| r.rdata.as_a() == Some(Ipv4Addr::LOCALHOST));
            }
        }
    }

    // --- Allocation inference --------------------------------------------
    // Two domains from acct1 distinguish fixed-per-account from random;
    // further accounts distinguish account-fixed from global-fixed. A
    // third account keeps the same-random-draw collision probability
    // negligible (two accounts drawing the same pair from a small pool is
    // a real event, as it is at real providers).
    let acct3 = world.providers[p_idx].borrow_mut().create_account();
    let sets: Vec<Option<Vec<Ipv4Addr>>> = [
        (acct1, &domains[1]),
        (acct1, &domains[2]),
        (acct2, &domains[3]),
        (acct3, &domains[4]),
    ]
    .into_iter()
    .map(|(acct, d)| {
        let mut p = world.providers[p_idx].borrow_mut();
        p.host_domain(acct, d, DomainClass::RegisteredSld)
            .ok()
            .map(|zid| {
                cleanup.push(zid);
                let mut ips: Vec<Ipv4Addr> = p
                    .assigned_ns(zid)
                    .iter()
                    .map(|&i| p.nameservers()[usize::from(i)].1)
                    .collect();
                if ips.is_empty() {
                    // global-fixed providers serve from the whole fleet
                    ips = p.nameservers().iter().map(|(_, ip)| *ip).collect();
                }
                ips.sort_unstable();
                ips
            })
    })
    .collect();
    let allocation = match (&sets[0], &sets[1], &sets[2], &sets[3]) {
        (Some(a), Some(b), Some(c), Some(d)) if a == b && b == c && c == d => "global-fixed",
        (Some(a), Some(b), Some(_), Some(_)) if a == b => "account-fixed",
        (Some(_), Some(_), Some(_), Some(_)) => "random",
        _ => "unknown",
    };

    // --- Supported domain classes ----------------------------------------
    let unregistered_name: Name = format!("ur-audit-unregistered-{p_idx}.com")
        .parse()
        .expect("probe name parses");
    let sub_name = domains[4].child(b"ur-audit-probe").expect("subdomain fits");
    let etld_name: Name = "gov.cn".parse().expect("static");
    let try_class = |domain: &Name, class: DomainClass, cleanup: &mut Vec<ZoneId>| -> bool {
        let mut p = world.providers[p_idx].borrow_mut();
        match p.host_domain(acct1, domain, class) {
            Ok(zid) => {
                cleanup.push(zid);
                true
            }
            Err(_) => false,
        }
    };
    let unregistered = try_class(&unregistered_name, DomainClass::Unregistered, &mut cleanup);
    let subdomain = try_class(&sub_name, DomainClass::Subdomain, &mut cleanup);
    let etld = try_class(&etld_name, DomainClass::Etld, &mut cleanup);

    // --- Duplicate hosting -------------------------------------------------
    let dup_domain = &domains[5];
    let (dup_single_user, dup_cross_user, no_retrieval) = {
        let mut p = world.providers[p_idx].borrow_mut();
        let first = p.host_domain(acct1, dup_domain, DomainClass::RegisteredSld);
        if let Ok(zid) = first {
            cleanup.push(zid);
        }
        let single = match p.host_domain(acct1, dup_domain, DomainClass::RegisteredSld) {
            Ok(zid) => {
                cleanup.push(zid);
                true
            }
            Err(HostError::Duplicate) => false,
            Err(_) => false,
        };
        let cross = match p.host_domain(acct2, dup_domain, DomainClass::RegisteredSld) {
            Ok(zid) => {
                cleanup.push(zid);
                true
            }
            Err(HostError::Duplicate) => false,
            Err(_) => false,
        };
        // Retrieval: a (simulated) legitimate owner tries to reclaim.
        let owner = p.create_account();
        let retrieval = match p.retrieve_domain(owner, dup_domain, DomainClass::RegisteredSld) {
            Ok(zid) => {
                cleanup.push(zid);
                true
            }
            Err(HostError::RetrievalUnsupported) => false,
            Err(_) => false,
        };
        (single, cross, !retrieval)
    };

    // --- Ethics cleanup -----------------------------------------------------
    {
        let mut p = world.providers[p_idx].borrow_mut();
        for zid in cleanup {
            p.deactivate_zone(zid);
        }
    }

    AuditRow {
        provider: name,
        allocation,
        hosting_without_verification,
        unregistered,
        subdomain,
        sld,
        etld,
        dup_single_user,
        dup_cross_user,
        no_retrieval,
    }
}

/// Audit the named Table 2 providers (in the paper's row order).
pub fn audit_table2(world: &mut World) -> Vec<AuditRow> {
    let order = [
        "Alibaba Cloud",
        "Amazon",
        "Baidu Cloud",
        "ClouDNS",
        "Cloudflare",
        "Godaddy",
        "Tencent Cloud",
    ];
    order
        .iter()
        .filter_map(|name| world.provider_index(name))
        .collect::<Vec<_>>()
        .into_iter()
        .map(|idx| audit_provider(world, idx))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use worldgen::WorldConfig;

    fn audit_map(world: &mut World) -> std::collections::HashMap<String, AuditRow> {
        audit_table2(world)
            .into_iter()
            .map(|r| (r.provider.clone(), r))
            .collect()
    }

    #[test]
    fn table2_matches_paper() {
        let mut world = World::generate(WorldConfig::small());
        let rows = audit_map(&mut world);
        assert_eq!(rows.len(), 7);

        // Every provider hosts without verification (the paper's headline).
        for (name, row) in &rows {
            assert!(
                row.hosting_without_verification,
                "{name} should serve unverified"
            );
            assert!(row.sld, "{name} should host SLDs");
            assert!(row.etld, "{name} should host eTLDs");
        }

        // Allocation column.
        assert_eq!(rows["Alibaba Cloud"].allocation, "global-fixed");
        assert_eq!(rows["Godaddy"].allocation, "global-fixed");
        assert_eq!(rows["Baidu Cloud"].allocation, "global-fixed");
        assert_eq!(rows["ClouDNS"].allocation, "global-fixed");
        assert_eq!(rows["Amazon"].allocation, "random");
        assert_eq!(rows["Cloudflare"].allocation, "account-fixed");
        assert_eq!(rows["Tencent Cloud"].allocation, "account-fixed");

        // Unregistered column: Amazon + ClouDNS only.
        for (name, expect) in [
            ("Alibaba Cloud", false),
            ("Amazon", true),
            ("Baidu Cloud", false),
            ("ClouDNS", true),
            ("Cloudflare", false),
            ("Godaddy", false),
            ("Tencent Cloud", false),
        ] {
            assert_eq!(rows[name].unregistered, expect, "{name} unregistered");
        }

        // Duplicate columns.
        assert!(rows["Amazon"].dup_single_user);
        assert!(rows["Amazon"].dup_cross_user);
        assert!(rows["Amazon"].no_retrieval);
        assert!(rows["Cloudflare"].dup_cross_user);
        assert!(!rows["Cloudflare"].no_retrieval);
        assert!(rows["Tencent Cloud"].dup_cross_user);
        assert!(rows["Godaddy"].no_retrieval);
        assert!(rows["ClouDNS"].no_retrieval);
        assert!(!rows["Alibaba Cloud"].dup_cross_user);
        assert!(!rows["Baidu Cloud"].dup_single_user);
    }

    #[test]
    fn audit_cleans_up_after_itself() {
        let mut world = World::generate(WorldConfig::small());
        let before: Vec<usize> = world
            .providers
            .iter()
            .map(|p| {
                let p = p.borrow();
                p.zones().iter().filter(|z| p.is_active(z.id)).count()
            })
            .collect();
        let _ = audit_table2(&mut world);
        let after: Vec<usize> = world
            .providers
            .iter()
            .map(|p| {
                let p = p.borrow();
                p.zones().iter().filter(|z| p.is_active(z.id)).count()
            })
            .collect();
        assert_eq!(before, after, "audit must deactivate all probe zones");
    }

    #[test]
    fn render_contains_columns() {
        let mut world = World::generate(WorldConfig::small());
        let rows = audit_table2(&mut world);
        let text = rows[0].render();
        assert!(text.contains("dup-cross"));
        assert!(text.contains("verif-less"));
    }
}
