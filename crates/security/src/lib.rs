//! # livescope-security — the §7 stream-hijacking attack and defense
//!
//! The paper found that neither Periscope nor Meerkat authenticated video
//! after connection setup: the broadcast token crosses the wire in
//! plaintext inside the RTMP connect, and frames are neither encrypted nor
//! signed. An on-path attacker (ARP spoofing on shared WiFi) can therefore
//! silently replace stream content at the broadcaster's or a viewer's
//! edge network. §7.2 proposes a lightweight fix: exchange a key pair over
//! the TLS-protected control channel, then embed a signature of each
//! frame's one-way hash in the frame metadata, optionally signing only
//! every k-th frame or a running hash across k frames.
//!
//! Everything cryptographic here is **built from scratch** and sized for
//! simulation, not production:
//!
//! * [`sha256`] — a complete, test-vector-verified SHA-256;
//! * [`rsa`] — Miller–Rabin prime generation and a textbook RSA-style
//!   signature over ~62-bit moduli. The *system* properties the
//!   experiments need (only the key holder can sign; anyone with the
//!   public key can verify; any payload bit-flip breaks the signature)
//!   hold; the key size obviously does not resist real factoring — see
//!   DESIGN.md's substitution table;
//! * [`signing`] — the §7.2 stream-signing policies (every frame, every
//!   k-th frame, hash-chain over k frames) as signer/verifier state
//!   machines;
//! * [`attack`] — the man-in-the-middle interceptor: parses RTMP off the
//!   wire, steals plaintext tokens, rewrites frames, and fails against
//!   sealed control traffic and signed streams.

pub mod attack;
pub mod rsa;
pub mod rtmps;
pub mod sha256;
pub mod signing;

pub use attack::Interceptor;
pub use rsa::{KeyPair, PublicKey};
pub use rtmps::RtmpsChannel;
pub use signing::{FrameStatus, SigningPolicy, StreamSigner, StreamVerifier};
