//! The §7.1 man-in-the-middle stream hijack.
//!
//! The attacker sits on the victim's edge network (the paper used ARP
//! spoofing on shared WiFi — no access-point compromise needed) and
//! rewrites traffic in flight. Against the plaintext RTMP channel it can:
//!
//! 1. **steal the broadcast token** from the connect message (readable
//!    verbatim on the wire);
//! 2. **replace frame content** — the paper's proof of concept swapped the
//!    video for black frames while the broadcaster kept seeing their own
//!    camera view.
//!
//! Sealed control traffic does not decode as RTMP, so the interceptor can
//! only forward it blind ([`InterceptAction::Opaque`]). That asymmetry is
//! the §7 story.

use bytes::Bytes;

use livescope_proto::rtmp::{RtmpMessage, VideoFrame};

/// The payload the paper's proof-of-concept injected: black frames.
pub fn black_frame_payload(len: usize) -> Bytes {
    Bytes::from(vec![0u8; len.max(1)])
}

/// What happened to one intercepted message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InterceptAction {
    /// Message passed through untouched.
    Forwarded,
    /// A frame was rewritten.
    Tampered,
    /// A token was harvested (connect message).
    TokenStolen,
    /// Opaque/undecodable traffic forwarded as-is.
    Opaque,
}

/// Frame-rewriting function: mutate the frame in place.
pub type TamperFn = Box<dyn FnMut(&mut VideoFrame)>;

/// An on-path interceptor for one direction of one victim's traffic.
pub struct Interceptor {
    tamper: TamperFn,
    /// Tokens harvested from plaintext connects.
    pub stolen_tokens: Vec<String>,
    /// Frames rewritten.
    pub frames_tampered: u64,
    /// Messages forwarded unmodified.
    pub forwarded: u64,
}

impl Interceptor {
    /// An interceptor that replaces every frame's payload with black
    /// frames of the same size (the paper's PoC).
    pub fn blackout() -> Self {
        Interceptor::with_tamper(Box::new(|frame: &mut VideoFrame| {
            frame.payload = black_frame_payload(frame.payload.len());
        }))
    }

    /// An interceptor with a custom rewrite.
    pub fn with_tamper(tamper: TamperFn) -> Self {
        Interceptor {
            tamper,
            stolen_tokens: Vec::new(),
            frames_tampered: 0,
            forwarded: 0,
        }
    }

    /// Processes one RTMP wire message, returning what goes back on the
    /// wire and what the attacker did.
    ///
    /// Crucially, the attacker does **not** need any key or session state:
    /// the protocol is plaintext, so parse → rewrite → re-encode just
    /// works. Signature fields, if present, are forwarded unchanged — the
    /// attacker cannot regenerate them, which is exactly what the defense
    /// exploits.
    pub fn process_rtmp(&mut self, wire: Bytes) -> (Bytes, InterceptAction) {
        match RtmpMessage::decode(wire.clone()) {
            Ok(RtmpMessage::Connect {
                token,
                role,
                user_id,
            }) => {
                self.stolen_tokens.push(token.clone());
                // Forward the original connect so the session proceeds.
                let msg = RtmpMessage::Connect {
                    token,
                    role,
                    user_id,
                };
                (msg.encode(), InterceptAction::TokenStolen)
            }
            Ok(RtmpMessage::Frame(mut frame)) => {
                (self.tamper)(&mut frame);
                self.frames_tampered += 1;
                (
                    RtmpMessage::Frame(frame).encode(),
                    InterceptAction::Tampered,
                )
            }
            Ok(_) => {
                self.forwarded += 1;
                (wire, InterceptAction::Forwarded)
            }
            Err(_) => {
                // Not RTMP (or encrypted): pass through blind.
                self.forwarded += 1;
                (wire, InterceptAction::Opaque)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livescope_proto::rtmp::Role;

    fn frame(seq: u64, fill: u8) -> VideoFrame {
        VideoFrame::new(seq, seq * 40_000, false, Bytes::from(vec![fill; 100]))
    }

    #[test]
    fn connect_tokens_are_harvested_and_forwarded_intact() {
        let mut mitm = Interceptor::blackout();
        let connect = RtmpMessage::Connect {
            token: "secret-tok".into(),
            role: Role::Publisher,
            user_id: 3,
        };
        let (wire, action) = mitm.process_rtmp(connect.encode());
        assert_eq!(action, InterceptAction::TokenStolen);
        assert_eq!(mitm.stolen_tokens, vec!["secret-tok".to_string()]);
        // Forwarded message is byte-identical: the victim notices nothing.
        assert_eq!(RtmpMessage::decode(wire).unwrap(), connect);
    }

    #[test]
    fn frames_are_blacked_out_but_metadata_preserved() {
        let mut mitm = Interceptor::blackout();
        let original = frame(9, 0xAB);
        let (wire, action) = mitm.process_rtmp(RtmpMessage::Frame(original.clone()).encode());
        assert_eq!(action, InterceptAction::Tampered);
        match RtmpMessage::decode(wire).unwrap() {
            RtmpMessage::Frame(f) => {
                assert_eq!(f.meta, original.meta, "metadata untouched — undetectable");
                assert_eq!(f.payload.len(), original.payload.len());
                assert!(f.payload.iter().all(|&b| b == 0), "payload is black");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(mitm.frames_tampered, 1);
    }

    #[test]
    fn custom_tamper_functions_apply() {
        let mut mitm = Interceptor::with_tamper(Box::new(|f: &mut VideoFrame| {
            f.payload = Bytes::from_static(b"PWNED");
        }));
        let (wire, _) = mitm.process_rtmp(RtmpMessage::Frame(frame(1, 7)).encode());
        match RtmpMessage::decode(wire).unwrap() {
            RtmpMessage::Frame(f) => assert_eq!(&f.payload[..], b"PWNED"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn signature_fields_survive_but_cannot_be_regenerated() {
        // A signed frame passes through the blackout attack: the payload
        // changes but the (now-stale) signature is forwarded verbatim —
        // any verifier will catch the mismatch.
        let mut signed = frame(2, 0x55);
        signed.meta.signature = Some(Bytes::from_static(&[9u8; 8]));
        let mut mitm = Interceptor::blackout();
        let (wire, _) = mitm.process_rtmp(RtmpMessage::Frame(signed.clone()).encode());
        match RtmpMessage::decode(wire).unwrap() {
            RtmpMessage::Frame(f) => {
                assert_eq!(f.meta.signature, signed.meta.signature);
                assert_ne!(f.payload, signed.payload);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn non_frame_messages_pass_through() {
        let mut mitm = Interceptor::blackout();
        let (wire, action) = mitm.process_rtmp(RtmpMessage::Ack { sequence: 4 }.encode());
        assert_eq!(action, InterceptAction::Forwarded);
        assert_eq!(
            RtmpMessage::decode(wire).unwrap(),
            RtmpMessage::Ack { sequence: 4 }
        );
    }
}
