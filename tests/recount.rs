//! Data-tier counters are true: each equals an independent recount from
//! the world it describes. A pipeline layer that silently repeats another
//! layer's work shows up here as a doubled counter.

use flock::core::Day;
use flock::fedisim::WorldConfig;
use flock::obs::Registry;
use flock::repro::MigrationStudy;

#[test]
fn migration_counters_match_a_recount_of_the_world() {
    let obs = Registry::new();
    let study = MigrationStudy::run_with_obs(&WorldConfig::small().with_seed(7), &obs).unwrap();
    let accounts = &study.world.accounts;
    assert_eq!(
        obs.counter_value("flock.fedisim.migration.migrants"),
        Some(accounts.len() as u64),
        "migrants counter vs World::accounts"
    );
    for (wave, start) in [
        ("takeover", Day::TAKEOVER),
        ("layoffs", Day::LAYOFFS),
        ("resignations", Day::RESIGNATIONS),
    ] {
        let recount = accounts
            .iter()
            .filter(|a| {
                let d = a.created.offset() - start.offset();
                (0..3).contains(&d)
            })
            .count() as u64;
        assert_eq!(
            obs.counter_value(&format!("flock.fedisim.migration.wave_{wave}")),
            Some(recount),
            "wave_{wave} counter vs World::accounts"
        );
    }
}
