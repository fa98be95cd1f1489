//! Minimal Telnet NVT codec (RFC 854/855 subset).
//!
//! The honeypot needs just enough Telnet to run a login dialogue with IoT
//! malware and scan tools: strip/answer IAC option negotiation, decode the
//! data stream into lines, and encode responses. Commands covered are the
//! negotiation verbs (WILL/WONT/DO/DONT + option byte), sub-negotiation
//! framing (SB ... SE), and the escaped literal 0xFF byte.

/// Interpret-As-Command escape byte.
pub const IAC: u8 = 255;
/// Option negotiation verbs.
pub const DONT: u8 = 254;
pub const DO: u8 = 253;
pub const WONT: u8 = 252;
pub const WILL: u8 = 251;
/// Sub-negotiation start / end.
pub const SB: u8 = 250;
pub const SE: u8 = 240;

/// Upper bound on a buffered sub-negotiation payload. A peer that opens
/// `IAC SB` and never closes it would otherwise grow the buffer without
/// limit; past the cap the extra bytes are dropped (the event still fires
/// with the truncated payload when `IAC SE` finally arrives). 4 KiB is far
/// beyond any legitimate NAWS/TERMINAL-TYPE payload.
pub const MAX_SUB: usize = 4096;

/// Commonly negotiated options.
pub mod option {
    /// Echo (RFC 857).
    pub const ECHO: u8 = 1;
    /// Suppress Go Ahead (RFC 858).
    pub const SGA: u8 = 3;
    /// Terminal type (RFC 1091).
    pub const TERMINAL_TYPE: u8 = 24;
    /// Negotiate About Window Size (RFC 1073).
    pub const NAWS: u8 = 31;
}

/// An event decoded from the Telnet byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TelnetEvent {
    /// Plain data bytes (with IAC IAC unescaped to a single 0xFF).
    Data(Vec<u8>),
    /// An option negotiation: verb (WILL/WONT/DO/DONT) + option byte.
    Negotiate { verb: u8, opt: u8 },
    /// A sub-negotiation payload for an option.
    Subnegotiation { opt: u8, data: Vec<u8> },
    /// A bare two-byte command (IAC x) other than negotiation/SB.
    Command(u8),
}

/// Decoder state machine for the Telnet stream.
#[derive(Debug, Clone, Default)]
pub struct TelnetDecoder {
    state: State,
    /// Sub-negotiation buffer (option byte + payload so far).
    sub: Vec<u8>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum State {
    #[default]
    Data,
    Iac,
    Verb(u8),
    Sub,
    SubIac,
}

impl TelnetDecoder {
    /// Fresh decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed bytes; returns the events completed by this chunk.
    /// Incomplete sequences are retained across calls.
    pub fn feed(&mut self, input: &[u8]) -> Vec<TelnetEvent> {
        let mut events = Vec::new();
        let mut data = Vec::new();
        for &b in input {
            match self.state {
                State::Data => {
                    if b == IAC {
                        self.state = State::Iac;
                    } else {
                        data.push(b);
                    }
                }
                State::Iac => match b {
                    IAC => {
                        // Escaped literal 0xFF.
                        data.push(IAC);
                        self.state = State::Data;
                    }
                    WILL | WONT | DO | DONT => self.state = State::Verb(b),
                    SB => {
                        self.flush_data(&mut data, &mut events);
                        self.sub.clear();
                        self.state = State::Sub;
                    }
                    other => {
                        self.flush_data(&mut data, &mut events);
                        events.push(TelnetEvent::Command(other));
                        self.state = State::Data;
                    }
                },
                State::Verb(verb) => {
                    self.flush_data(&mut data, &mut events);
                    events.push(TelnetEvent::Negotiate { verb, opt: b });
                    self.state = State::Data;
                }
                State::Sub => {
                    if b == IAC {
                        self.state = State::SubIac;
                    } else {
                        self.sub_push(b);
                    }
                }
                State::SubIac => {
                    if b == SE {
                        let opt = if self.sub.is_empty() { 0 } else { self.sub[0] };
                        let payload = if self.sub.len() > 1 {
                            self.sub[1..].to_vec()
                        } else {
                            Vec::new()
                        };
                        events.push(TelnetEvent::Subnegotiation { opt, data: payload });
                        self.sub.clear();
                        self.state = State::Data;
                    } else if b == IAC {
                        // Escaped 0xFF inside sub-negotiation.
                        self.sub_push(IAC);
                        self.state = State::Sub;
                    } else {
                        // Malformed; keep the bytes and stay in SB (lenient).
                        self.sub_push(IAC);
                        self.sub_push(b);
                        self.state = State::Sub;
                    }
                }
            }
        }
        self.flush_data(&mut data, &mut events);
        events
    }

    /// Buffer a sub-negotiation byte, bounded by [`MAX_SUB`].
    fn sub_push(&mut self, b: u8) {
        if self.sub.len() < MAX_SUB {
            self.sub.push(b);
        }
    }

    fn flush_data(&self, data: &mut Vec<u8>, events: &mut Vec<TelnetEvent>) {
        if !data.is_empty() {
            events.push(TelnetEvent::Data(std::mem::take(data)));
        }
    }
}

/// Encode plain data for the wire, escaping literal 0xFF bytes.
pub fn encode_data(data: &[u8], out: &mut Vec<u8>) {
    for &b in data {
        if b == IAC {
            out.push(IAC);
        }
        out.push(b);
    }
}

/// Encode an option negotiation.
pub fn encode_negotiate(verb: u8, opt: u8, out: &mut Vec<u8>) {
    out.push(IAC);
    out.push(verb);
    out.push(opt);
}

/// The refusal verb to answer a peer's negotiation with (the honeypot plays a
/// dumb NVT: it refuses everything except SGA/ECHO which it accepts, like
/// BusyBox telnetd).
pub fn refusal_for(verb: u8) -> u8 {
    match verb {
        DO => WONT,
        DONT => WONT,
        WILL => DONT,
        WONT => DONT,
        _ => WONT,
    }
}

/// Accumulates [`TelnetEvent::Data`] into CR/LF-terminated lines, the unit the
/// login dialogue and shell operate on.
#[derive(Debug, Clone, Default)]
pub struct LineAssembler {
    buf: Vec<u8>,
}

impl LineAssembler {
    /// Fresh assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Push data bytes; returns completed lines (without the terminator).
    /// Handles CR LF, bare LF, and Telnet's CR NUL.
    pub fn push(&mut self, data: &[u8]) -> Vec<String> {
        let mut lines = Vec::new();
        for &b in data {
            match b {
                b'\n' => {
                    // Strip a CR that preceded the LF.
                    if self.buf.last() == Some(&b'\r') {
                        self.buf.pop();
                    }
                    lines.push(String::from_utf8_lossy(&self.buf).into_owned());
                    self.buf.clear();
                }
                0 => {
                    // CR NUL means a bare carriage return: treat CR NUL as EOL
                    // only if the CR is pending.
                    if self.buf.last() == Some(&b'\r') {
                        self.buf.pop();
                        lines.push(String::from_utf8_lossy(&self.buf).into_owned());
                        self.buf.clear();
                    }
                }
                _ => self.buf.push(b),
            }
        }
        lines
    }

    /// Bytes buffered waiting for a terminator.
    pub fn pending(&self) -> &[u8] {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn plain_data_passthrough() {
        let mut d = TelnetDecoder::new();
        let ev = d.feed(b"hello");
        assert_eq!(ev, vec![TelnetEvent::Data(b"hello".to_vec())]);
    }

    #[test]
    fn negotiation_decoded() {
        let mut d = TelnetDecoder::new();
        let ev = d.feed(&[IAC, DO, option::ECHO, b'x']);
        assert_eq!(
            ev,
            vec![
                TelnetEvent::Negotiate {
                    verb: DO,
                    opt: option::ECHO
                },
                TelnetEvent::Data(b"x".to_vec()),
            ]
        );
    }

    #[test]
    fn escaped_iac_is_data() {
        let mut d = TelnetDecoder::new();
        let ev = d.feed(&[b'a', IAC, IAC, b'b']);
        assert_eq!(ev, vec![TelnetEvent::Data(vec![b'a', IAC, b'b'])]);
    }

    #[test]
    fn subnegotiation_roundtrip() {
        let mut d = TelnetDecoder::new();
        let ev = d.feed(&[IAC, SB, option::NAWS, 0, 80, 0, 24, IAC, SE]);
        assert_eq!(
            ev,
            vec![TelnetEvent::Subnegotiation {
                opt: option::NAWS,
                data: vec![0, 80, 0, 24],
            }]
        );
    }

    #[test]
    fn split_across_feeds() {
        let mut d = TelnetDecoder::new();
        assert_eq!(d.feed(&[IAC]), vec![]);
        assert_eq!(d.feed(&[WILL]), vec![],);
        assert_eq!(
            d.feed(&[option::SGA]),
            vec![TelnetEvent::Negotiate {
                verb: WILL,
                opt: option::SGA
            }],
        );
    }

    #[test]
    fn bare_command() {
        let mut d = TelnetDecoder::new();
        // IAC NOP (241)
        let ev = d.feed(&[IAC, 241]);
        assert_eq!(ev, vec![TelnetEvent::Command(241)]);
    }

    #[test]
    fn encode_escapes_iac() {
        let mut out = Vec::new();
        encode_data(&[1, IAC, 2], &mut out);
        assert_eq!(&out[..], &[1, IAC, IAC, 2]);
    }

    #[test]
    fn refusals() {
        assert_eq!(refusal_for(DO), WONT);
        assert_eq!(refusal_for(WILL), DONT);
    }

    #[test]
    fn line_assembler_variants() {
        let mut la = LineAssembler::new();
        assert_eq!(la.push(b"root\r\n"), vec!["root".to_string()]);
        assert_eq!(la.push(b"admin\n"), vec!["admin".to_string()]);
        assert_eq!(la.push(b"pass\r\0"), vec!["pass".to_string()]);
        assert_eq!(la.push(b"partial"), Vec::<String>::new());
        assert_eq!(la.pending(), b"partial");
        assert_eq!(la.push(b"!\n"), vec!["partial!".to_string()]);
    }

    #[test]
    fn unterminated_subnegotiation_is_bounded() {
        let mut d = TelnetDecoder::new();
        assert_eq!(d.feed(&[IAC, SB, option::NAWS]), vec![]);
        // Pour in far more payload than the cap; memory must stay bounded.
        for _ in 0..10 {
            assert_eq!(d.feed(&[b'A'; 1024]), vec![]);
        }
        let ev = d.feed(&[IAC, SE]);
        let TelnetEvent::Subnegotiation { opt, data } = &ev[0] else {
            panic!("expected subnegotiation, got {ev:?}");
        };
        assert_eq!(*opt, option::NAWS);
        assert_eq!(data.len(), MAX_SUB - 1, "payload truncated at the cap");
    }

    proptest! {
        /// encode_data followed by decode yields the original bytes as Data.
        #[test]
        fn prop_encode_decode_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..200)) {
            let mut out = Vec::new();
            encode_data(&data, &mut out);
            let mut d = TelnetDecoder::new();
            let evs = d.feed(&out);
            let mut got = Vec::new();
            for e in evs {
                match e {
                    TelnetEvent::Data(v) => got.extend(v),
                    other => prop_assert!(false, "unexpected event {other:?}"),
                }
            }
            prop_assert_eq!(got, data);
        }

        /// Decoder never panics on arbitrary bytes and always terminates.
        #[test]
        fn prop_decoder_total(data in proptest::collection::vec(any::<u8>(), 0..500)) {
            let mut d = TelnetDecoder::new();
            let _ = d.feed(&data);
        }
    }
}
