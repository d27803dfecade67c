//! The on-guest secure channel: the `issl` record layer served from
//! *compiled C* firmware.
//!
//! Where [`crate::serve`] echoes plaintext, this module compiles a full
//! record-layer runtime — record framing, PSK key derivation, AES-128/128
//! CBC and HMAC-SHA1 — written in the Dynamic C subset, links it against
//! the two hand-assembly cores from `aes-rabbit`
//! ([`aes_rabbit::sha1_linked_module`] and
//! [`aes_rabbit::aes128_linked_module`]), and serves up to
//! [`rabbit::nicmap::MAX_CONNS`] concurrent secure sessions to host-side
//! `issl` clients through netsim. The paper's port (§5) moved the
//! service's record layer onto the board the same way: C for the protocol
//! logic, assembly for the cipher inner loops.
//!
//! The C side hashes through `extern void sha1_run();` over the
//! `hbuf`/`hlen`/`dig` globals and builds HMAC and the KDF on the
//! module's midstate entries (RFC 2104 §4): `hmac_key(s)` hashes a key's
//! two pad blocks once into midstate slots `s`/`s + 1` through
//! `sha1_save`, and every `hmac_run(s)` after it resumes from them
//! through `sha1_resume`, so a MAC costs its message's blocks and not the
//! pads'. The slots ([`aes_rabbit::SHA1_MIDSTATE_SLOTS`]): 0/1 the PSK,
//! built once in `main` before the NIC interrupt is enabled; 2/3 the
//! session master key; `4 + 4h`/`6 + 4h` the client and server MAC keys
//! of handle `h`, rebuilt by `kdf_run(h)` whenever the handle starts a
//! session. Every wire constant is spliced in from [`issl::recmap`] —
//! the Dynamic C subset has no preprocessor, so the shared "header" is
//! generated, not included. A session's connection handle doubles as its
//! session index.
//!
//! Everything observable — plaintext transcripts, raw record bytes,
//! alerts, serial output, cycle counts, telemetry — is byte-identical
//! across the interpreter and block-cache engines; the tier-1 suites
//! assert it.

use crypto::Prng;
use issl::recmap;
use issl::{CipherSuite, ClientConfig, ClientKx, SessionMachine};
use netsim::{Recv, SimHost, SocketId};
use rabbit::nicmap::{
    MAX_CONNS, STATUS_ACCEPT_READY, STATUS_ERR, STATUS_PEER_CLOSED, STATUS_RX_AVAIL,
    STATUS_TX_READY,
};
use rabbit::Engine;
use telemetry::ProfileReport;

use crate::fleet::{fleet_serve, FleetSpec};
use crate::nic::NIC_VECTOR;
use crate::serial::SERIAL_A_VECTOR;

/// TCP port the secure server listens on.
pub const SECURE_PORT: u16 = 443;

/// Per-session reassembly buffer, in bytes. Sized so the largest record
/// body the guest accepts ([`MAX_GUEST_BODY`] + header) plus one more
/// full Ethernet frame always fits — the guest never reads a byte it
/// cannot buffer.
pub const REASM: usize = 2600;

/// Largest record body the guest accepts. The host record layer allows
/// [`recmap::MAX_RECORD`]; the guest serves [`recmap::FRAGMENT`]-sized
/// data records (body ≤ 16 + 1040 + 20 = 1076 bytes) and statically
/// allocates for exactly that, per the paper's no-`malloc` rule (§5.2).
/// Anything larger draws an alert and a close.
pub const MAX_GUEST_BODY: usize = 1100;

/// Seed of the guest's 16-bit LCG nonce/IV generator (set by `main`).
/// Fixed, so both engines draw the same stream — the secure channel's
/// determinism story, not its security story.
pub const GUEST_PRNG_SEED: u16 = 935;

// ---------------------------------------------------------------------------
// Generated C source
// ---------------------------------------------------------------------------

/// Emits `dst[start + i] = bytes[i];` statements — how byte-string
/// constants (alert texts, KDF labels) reach a language with no string
/// literals.
fn put_bytes(dst: &str, start: usize, bytes: &[u8]) -> String {
    bytes
        .iter()
        .enumerate()
        .map(|(i, b)| format!("        {dst}[{}] = {};\n", start + i, b))
        .collect()
}

/// The crypto half of the guest: HMAC-SHA1 and the issl KDF over the
/// linked assembly SHA-1 and its midstate slots, plus the LCG the server
/// draws nonces and IVs from. Kept separate from [`record_c`] so the differential tests
/// can drive it under a bare test `main`.
fn crypto_c() -> String {
    let template = "\
/* ---- HMAC / KDF over the linked SHA-1 and its midstate slots ---- */
extern void sha1_run();
extern void sha1_save();
extern void sha1_resume();
char hbuf[@HBUF@];
int hlen;
char dig[20];
int hslot;
char hkey[64];
int hklen;
char hmsg[1100];
int hmlen;
char psk[64];
int psklen;
char kb[80];
char tbuf[120];
char thash[60];
char ckey[48];
char skey[48];
char cmac[60];
char smac[60];
int rnd;

int rnd_byte() {
    rnd = (rnd * 25173) + 13849;
    return (rnd >> 8) & 255;
}

void hmac_key(int s) {
    int i;
    for (i = 0; i < 64; i = i + 1) {
        if (i < hklen) hbuf[i] = hkey[i] ^ 54;
        else hbuf[i] = 54;
    }
    hslot = s;
    sha1_save();
    for (i = 0; i < 64; i = i + 1) {
        if (i < hklen) hbuf[i] = hkey[i] ^ 92;
        else hbuf[i] = 92;
    }
    hslot = s + 1;
    sha1_save();
}

void hmac_run(int s) {
    int i;
    for (i = 0; i < hmlen; i = i + 1) hbuf[i] = hmsg[i];
    hlen = hmlen;
    hslot = s;
    sha1_resume();
    for (i = 0; i < 20; i = i + 1) hbuf[i] = dig[i];
    hlen = 20;
    hslot = s + 1;
    sha1_resume();
}

void hmac_psk() {
    int i;
    for (i = 0; i < psklen; i = i + 1) hkey[i] = psk[i];
    hklen = psklen;
    hmac_key(0);
}

void kdf_run(int h) {
    int i; int r; int tb; int o;
    tb = h * 40;
@MASTER@
    for (i = 0; i < @NONCE@; i = i + 1) hmsg[6 + i] = tbuf[(tb + 2) + i];
    for (i = 0; i < @NONCE@; i = i + 1) hmsg[22 + i] = tbuf[(tb + 20) + i];
    hmlen = 38;
    hmac_run(0);
    for (i = 0; i < 20; i = i + 1) hkey[i] = dig[i];
    hklen = 20;
    hmac_key(2);
    for (r = 0; r < 4; r = r + 1) {
        hmsg[0] = r;
@KEYEXP@
        for (i = 0; i < @NONCE@; i = i + 1) hmsg[14 + i] = tbuf[(tb + 2) + i];
        for (i = 0; i < @NONCE@; i = i + 1) hmsg[30 + i] = tbuf[(tb + 20) + i];
        hmlen = 46;
        hmac_run(2);
        o = r * 20;
        for (i = 0; i < 20; i = i + 1) kb[o + i] = dig[i];
    }
    o = h * 16;
    for (i = 0; i < 16; i = i + 1) ckey[o + i] = kb[i];
    for (i = 0; i < 16; i = i + 1) skey[o + i] = kb[16 + i];
    o = h * 20;
    for (i = 0; i < 20; i = i + 1) {
        cmac[o + i] = kb[32 + i];
        hkey[i] = kb[32 + i];
    }
    hmac_key((h * 4) + 4);
    for (i = 0; i < 20; i = i + 1) {
        smac[o + i] = kb[52 + i];
        hkey[i] = kb[52 + i];
    }
    hmac_key((h * 4) + 6);
}
";
    template
        .replace("@MASTER@", put_bytes("hmsg", 0, b"master").trim_end())
        .replace("@KEYEXP@", put_bytes("hmsg", 1, b"key expansion").trim_end())
        .replace("@NONCE@", &recmap::NONCE_LEN.to_string())
        .replace("@HBUF@", &aes_rabbit::SHA1_HBUF_LEN.to_string())
}

/// The record-layer half of the guest: framing, the per-handle session
/// state machine, the NIC and serial service routines, and `main`.
///
/// Session states: 0 = awaiting `ClientHello` (sniffing), 1 = awaiting
/// `KeyExchange`, 2 = awaiting `Finished`, 3 = established, 4 =
/// plaintext echo (first byte was not a `ClientHello` — the port serves
/// mixed load on one listener), 5 = closed.
fn record_c(port: u16) -> String {
    let template = "\
/* ---- record layer, served round-robin over the NIC handles ---- */
extern void aes_expand();
extern void aes_enc();
extern void aes_dec();

root char rxb[@RXBSZ@];
int rxlen[@CONNS@];
root char nb[1472];
root char sb[@REASM@];
char ptb[1088];
char cprev[16];
char aes_key[16];
char aes_blk[16];
int sstate[@CONNS@];
int seqi[@CONNS@];
int seqo[@CONNS@];
int hs_ok[@CONNS@];
int rec_in[@CONNS@];
int rec_out[@CONNS@];
int alerts[@CONNS@];
int alert_kind[3];
int naccepts;
int nopen;

void send_rec(int h, int t, int blen) {
    sb[0] = t;
    sb[1] = (blen >> 8) & 255;
    sb[2] = blen & 255;
    nic_send(h, sb, blen + @HDR@);
}

void send_alert(int h, int w) {
    int n;
    if (w == 1) {
@ALERT_SUITE@
        n = @ALERT_SUITE_LEN@;
    } else if (w == 2) {
@ALERT_FIN@
        n = @ALERT_FIN_LEN@;
    } else {
@ALERT_CLOSE@
        n = @ALERT_CLOSE_LEN@;
    }
    send_rec(h, @ALERT@, n);
}

void count_open() {
    int h; int n;
    n = 0;
    for (h = 0; h < @CONNS@; h = h + 1) {
        if (nic_conn(h) & @OPEN@) n = n + 1;
    }
    nopen = n;
}

void fail(int h, int w) {
    int st;
    st = nic_conn(h);
    if (st & @OPEN@) send_alert(h, w);
    nic_close(h);
    count_open();
    sstate[h] = 5;
    rxlen[h] = 0;
    alerts[h] = alerts[h] + 1;
    alert_kind[w] = alert_kind[w] + 1;
}

int do_hello(int h, int blen) {
    int i; int tb; int base;
    base = (h * @REASM@) + @HDR@;
    tb = h * 40;
    if (blen != @CHLEN@) return 0;
    if (rxb[base] != @GEOM0@) return 2;
    if (rxb[base + 1] != @GEOM1@) return 2;
    for (i = 0; i < @CHLEN@; i = i + 1) tbuf[tb + i] = rxb[base + i];
    tbuf[tb + 18] = @GEOM0@;
    tbuf[tb + 19] = @GEOM1@;
    for (i = 0; i < @NONCE@; i = i + 1) tbuf[(tb + 20) + i] = rnd_byte();
    for (i = 0; i < 4; i = i + 1) tbuf[(tb + 36) + i] = 0;
    for (i = 0; i < @SHLEN@; i = i + 1) sb[@HDR@ + i] = tbuf[(tb + 18) + i];
    send_rec(h, @SH@, @SHLEN@);
    return 1;
}

void do_kx(int h) {
    int i; int o;
    o = h * 40;
    for (i = 0; i < 40; i = i + 1) hbuf[i] = tbuf[o + i];
    hlen = 40;
    sha1_run();
    o = h * @MACL@;
    for (i = 0; i < @MACL@; i = i + 1) thash[o + i] = dig[i];
    kdf_run(h);
}

int do_finished(int h, int blen) {
    int i; int bad; int base; int o;
    base = (h * @REASM@) + @HDR@;
    if (blen != @MACL@) return 0;
    o = h * @MACL@;
    for (i = 0; i < @MACL@; i = i + 1) hmsg[i] = thash[o + i];
    hmlen = @MACL@;
    hmac_run((h * 4) + 4);
    bad = 0;
    for (i = 0; i < @MACL@; i = i + 1) {
        if (dig[i] != rxb[base + i]) bad = 1;
    }
    if (bad) return 0;
    hmac_run((h * 4) + 6);
    for (i = 0; i < @MACL@; i = i + 1) sb[@HDR@ + i] = dig[i];
    send_rec(h, @FIN@, @MACL@);
    return 1;
}

void send_data(int h, int npt) {
    int i; int k; int nct; int b; int nblk; int pad; int o;
    pad = 16 - (npt & 15);
    for (i = 0; i < pad; i = i + 1) ptb[npt + i] = pad;
    nct = npt + pad;
    o = h * 16;
    for (i = 0; i < 16; i = i + 1) aes_key[i] = skey[o + i];
    aes_expand();
    for (i = 0; i < 16; i = i + 1) {
        k = rnd_byte();
        cprev[i] = k;
        sb[@HDR@ + i] = k;
    }
    nblk = nct >> 4;
    for (b = 0; b < nblk; b = b + 1) {
        o = b << 4;
        for (i = 0; i < 16; i = i + 1) aes_blk[i] = ptb[o + i] ^ cprev[i];
        aes_enc();
        k = (@HDR@ + 16) + o;
        for (i = 0; i < 16; i = i + 1) {
            sb[k + i] = aes_blk[i];
            cprev[i] = aes_blk[i];
        }
    }
    for (i = 0; i < 6; i = i + 1) hmsg[i] = 0;
    hmsg[6] = (seqo[h] >> 8) & 255;
    hmsg[7] = seqo[h] & 255;
    k = 16 + nct;
    for (i = 0; i < k; i = i + 1) hmsg[8 + i] = sb[@HDR@ + i];
    hmlen = k + 8;
    hmac_run((h * 4) + 6);
    k = (@HDR@ + 16) + nct;
    for (i = 0; i < @MACL@; i = i + 1) sb[k + i] = dig[i];
    send_rec(h, @DATA@, (16 + nct) + @MACL@);
    seqo[h] = seqo[h] + 1;
    rec_out[h] = rec_out[h] + 1;
}

int do_data(int h, int blen) {
    int i; int k; int nct; int npt; int base; int pad; int bad; int nblk; int b; int o;
    base = (h * @REASM@) + @HDR@;
    if (blen < 52) return 0;
    nct = blen - 36;
    if (nct & 15) return 0;
    for (i = 0; i < 6; i = i + 1) hmsg[i] = 0;
    hmsg[6] = (seqi[h] >> 8) & 255;
    hmsg[7] = seqi[h] & 255;
    k = blen - @MACL@;
    for (i = 0; i < k; i = i + 1) hmsg[8 + i] = rxb[base + i];
    hmlen = k + 8;
    hmac_run((h * 4) + 4);
    bad = 0;
    k = (base + blen) - @MACL@;
    for (i = 0; i < @MACL@; i = i + 1) {
        if (dig[i] != rxb[k + i]) bad = 1;
    }
    if (bad) return 0;
    o = h * 16;
    for (i = 0; i < 16; i = i + 1) aes_key[i] = ckey[o + i];
    aes_expand();
    for (i = 0; i < 16; i = i + 1) cprev[i] = rxb[base + i];
    nblk = nct >> 4;
    for (b = 0; b < nblk; b = b + 1) {
        k = (base + 16) + (b << 4);
        o = b << 4;
        for (i = 0; i < 16; i = i + 1) aes_blk[i] = rxb[k + i];
        aes_dec();
        for (i = 0; i < 16; i = i + 1) ptb[o + i] = aes_blk[i] ^ cprev[i];
        for (i = 0; i < 16; i = i + 1) cprev[i] = rxb[k + i];
    }
    npt = nct;
    pad = ptb[npt - 1];
    if (pad == 0) return 0;
    if (pad > 16) return 0;
    bad = 0;
    for (i = 0; i < pad; i = i + 1) {
        if (ptb[(npt - 1) - i] != pad) bad = 1;
    }
    if (bad) return 0;
    npt = npt - pad;
    seqi[h] = seqi[h] + 1;
    rec_in[h] = rec_in[h] + 1;
    send_data(h, npt);
    return 1;
}

void pump(int h) {
    int base; int t; int blen; int i; int r;
    base = h * @REASM@;
    while (1) {
        if (sstate[h] == 5) {
            rxlen[h] = 0;
            return;
        }
        if (rxlen[h] == 0) return;
        if (sstate[h] == 0) {
            if (rxb[base] != @CH@) sstate[h] = 4;
        }
        if (sstate[h] == 4) {
            for (i = 0; i < rxlen[h]; i = i + 1) sb[i] = rxb[base + i];
            nic_send(h, sb, rxlen[h]);
            rxlen[h] = 0;
            return;
        }
        if (rxlen[h] < @HDR@) return;
        t = rxb[base];
        blen = (rxb[base + 1] << 8) | rxb[base + 2];
        if (t < @CH@) { fail(h, 0); return; }
        if (t > @ALERT@) { fail(h, 0); return; }
        if (blen > @MAXBODY@) { fail(h, 0); return; }
        if (rxlen[h] < (blen + @HDR@)) return;
        if (t == @ALERT@) {
            nic_close(h);
            count_open();
            sstate[h] = 5;
            rxlen[h] = 0;
            return;
        }
        if (sstate[h] == 0) {
            r = do_hello(h, blen);
            if (r == 2) { fail(h, 1); return; }
            if (r == 0) { fail(h, 0); return; }
            sstate[h] = 1;
        } else if (sstate[h] == 1) {
            if (t != @KX@) { fail(h, 0); return; }
            do_kx(h);
            sstate[h] = 2;
        } else if (sstate[h] == 2) {
            if (t != @FIN@) { fail(h, 2); return; }
            r = do_finished(h, blen);
            if (r == 0) { fail(h, 2); return; }
            sstate[h] = 3;
            hs_ok[h] = hs_ok[h] + 1;
        } else {
            if (t != @DATA@) { fail(h, 0); return; }
            r = do_data(h, blen);
            if (r == 0) { fail(h, 0); return; }
        }
        rxlen[h] = rxlen[h] - (blen + @HDR@);
        for (i = 0; i < rxlen[h]; i = i + 1) rxb[base + i] = rxb[(base + (blen + @HDR@)) + i];
    }
}

interrupt void nic_isr() {
    int st; int h; int n; int i; int again; int base;
    again = 1;
    while (again) {
        again = 0;
        for (h = 0; h < @CONNS@; h = h + 1) {
            st = nic_conn(h);
            if ((st & @ACC@) && !(st & @OPEN@)) {
                st = nic_accept(h);
                if (!(st & @ERR@)) {
                    count_open();
                    naccepts = naccepts + 1;
                    sstate[h] = 0;
                    rxlen[h] = 0;
                    seqi[h] = 0;
                    seqo[h] = 0;
                }
                again = 1;
                st = nic_conn(h);
            }
            if (st & @RX@) {
                n = nic_recv(h, nb);
                base = h * @REASM@;
                if ((rxlen[h] + n) > @REASM@) {
                    fail(h, 0);
                } else {
                    for (i = 0; i < n; i = i + 1) rxb[(base + rxlen[h]) + i] = nb[i];
                    rxlen[h] = rxlen[h] + n;
                    pump(h);
                }
                again = 1;
                st = nic_conn(h);
            }
            if ((st & @OPEN@) && (st & @GONE@) && !(st & @RX@)) {
                if ((sstate[h] != 4) && (sstate[h] != 5) && (rxlen[h] != 0)) {
                    fail(h, 0);
                } else {
                    nic_close(h);
                    count_open();
                    sstate[h] = 5;
                    rxlen[h] = 0;
                }
                again = 1;
            }
        }
    }
    count_open();
}

interrupt void ser_isr() {
    while (serial_status() & 0x80) {
        serial_getc();
        serial_putc(83);
        serial_putc(48 + nopen);
        serial_putc(10);
    }
}

int main() {
    rnd = @SEED@;
    serial_init(2);
    hmac_psk();
    nic_listen(@PORT@);
    nic_ier(1);
    idle();
    return 0;
}
";
    template
        .replace("@RXBSZ@", &(REASM * MAX_CONNS).to_string())
        .replace("@REASM@", &REASM.to_string())
        .replace("@CONNS@", &MAX_CONNS.to_string())
        .replace("@HDR@", &recmap::HEADER_LEN.to_string())
        .replace("@MAXBODY@", &MAX_GUEST_BODY.to_string())
        .replace("@CH@", &recmap::REC_CLIENT_HELLO.to_string())
        .replace("@SH@", &recmap::REC_SERVER_HELLO.to_string())
        .replace("@KX@", &recmap::REC_KEY_EXCHANGE.to_string())
        .replace("@FIN@", &recmap::REC_FINISHED.to_string())
        .replace("@DATA@", &recmap::REC_DATA.to_string())
        .replace("@ALERT@", &recmap::REC_ALERT.to_string())
        .replace("@CHLEN@", &recmap::CLIENT_HELLO_LEN.to_string())
        .replace("@SHLEN@", &recmap::SERVER_HELLO_PSK_LEN.to_string())
        .replace("@NONCE@", &recmap::NONCE_LEN.to_string())
        .replace("@MACL@", &recmap::MAC_LEN.to_string())
        .replace("@GEOM0@", &recmap::AES128_GEOMETRY[0].to_string())
        .replace("@GEOM1@", &recmap::AES128_GEOMETRY[1].to_string())
        .replace(
            "@ALERT_SUITE@",
            put_bytes("sb", recmap::HEADER_LEN, recmap::ALERT_UNSUPPORTED_SUITE).trim_end(),
        )
        .replace(
            "@ALERT_SUITE_LEN@",
            &recmap::ALERT_UNSUPPORTED_SUITE.len().to_string(),
        )
        .replace(
            "@ALERT_FIN@",
            put_bytes("sb", recmap::HEADER_LEN, recmap::ALERT_BAD_FINISHED).trim_end(),
        )
        .replace(
            "@ALERT_FIN_LEN@",
            &recmap::ALERT_BAD_FINISHED.len().to_string(),
        )
        .replace(
            "@ALERT_CLOSE@",
            put_bytes("sb", recmap::HEADER_LEN, recmap::ALERT_CLOSE).trim_end(),
        )
        .replace("@ALERT_CLOSE_LEN@", &recmap::ALERT_CLOSE.len().to_string())
        .replace("@ACC@", &STATUS_ACCEPT_READY.to_string())
        .replace("@OPEN@", &STATUS_TX_READY.to_string())
        .replace("@ERR@", &STATUS_ERR.to_string())
        .replace("@RX@", &STATUS_RX_AVAIL.to_string())
        .replace("@GONE@", &STATUS_PEER_CLOSED.to_string())
        .replace("@SEED@", &GUEST_PRNG_SEED.to_string())
        .replace("@PORT@", &port.to_string())
}

/// The complete secure-server translation unit, in the Dynamic C subset.
pub fn secure_server_c(port: u16) -> String {
    format!("{}{}", crypto_c(), record_c(port))
}

/// Compiles [`secure_server_c`] and links the hand-assembly SHA-1 and
/// AES modules behind its `extern` declarations, then checks the memory
/// map: the compiled C must stay clear of the modules' code, table, and
/// workspace origins — the assertion is the link-time "linker script".
///
/// Loop unrolling is forced off whatever `opts` says: unrolled, the
/// record runtime's fixed-count copy loops grow the compiled C from
/// 7,957 to 17,129 bytes, past the SHA-1 module origin and the
/// root-data boundary itself, and a build that cannot fit is not an
/// optimization level.
///
/// # Panics
///
/// If the C source fails to compile, the link fails, or any two image
/// sections overlap.
pub fn build_secure_firmware(opts: dcc::Options) -> dcc::Build {
    let opts = dcc::Options {
        unroll: false,
        ..opts
    };
    let sha1 = aes_rabbit::sha1_linked_module();
    let aes = aes_rabbit::aes128_linked_module();
    let build = dcc::build_firmware_linked(
        &secure_server_c(SECURE_PORT),
        opts,
        &[(SERIAL_A_VECTOR, "ser_isr"), (NIC_VECTOR, "nic_isr")],
        &[&sha1, &aes],
    )
    .expect("C secure server compiles and links");
    let mut spans: Vec<(u16, usize)> = build
        .image
        .sections
        .iter()
        .map(|s| (s.addr, s.bytes.len()))
        .collect();
    spans.sort_unstable();
    for w in spans.windows(2) {
        assert!(
            usize::from(w[0].0) + w[0].1 <= usize::from(w[1].0),
            "image sections overlap: {:#06x}+{} vs {:#06x}",
            w[0].0,
            w[0].1,
            w[1].0
        );
    }
    build
}

// ---------------------------------------------------------------------------
// Host-side driver
// ---------------------------------------------------------------------------

/// A deliberate protocol violation a test client commits against the
/// guest, to pin down the server's failure behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tamper {
    /// Behave; the session should complete.
    None,
    /// After establishing, flip the last MAC byte of the first outgoing
    /// data record. The guest must alert and close.
    FlipDataMac,
    /// After establishing, send a bare record header promising a body
    /// that never comes, then close the connection. The guest must treat
    /// the truncated record as fatal.
    TruncateAfterHeader,
}

/// One host-side client in a [`secure_serve`] session.
#[derive(Debug, Clone)]
pub enum GuestClient {
    /// A sans-I/O `issl` client machine doing the full PSK handshake and
    /// echoing `messages` through the secure channel. A `psk` different
    /// from the board's models the wrong-credential case.
    Secure {
        messages: Vec<Vec<u8>>,
        psk: Vec<u8>,
        tamper: Tamper,
    },
    /// A plaintext echo client on the same port (the guest sniffs the
    /// first byte and falls back to plain echo).
    Plain { messages: Vec<Vec<u8>> },
    /// Sends `payload` verbatim once connected and records whatever
    /// comes back — for handcrafted records the client machine would
    /// refuse to emit.
    Raw { payload: Vec<u8> },
    /// Sends `payload` once connected and then hangs up immediately —
    /// the client that disconnects mid-handshake. Whatever the guest
    /// answers (typically an alert) lands in `raw_rx`.
    HangUp { payload: Vec<u8> },
}

impl GuestClient {
    /// A well-behaved secure echo client.
    #[must_use]
    pub fn secure(messages: &[&[u8]], psk: &[u8]) -> Self {
        GuestClient::Secure {
            messages: messages.iter().map(|m| m.to_vec()).collect(),
            psk: psk.to_vec(),
            tamper: Tamper::None,
        }
    }
}

/// What one client observed over its connection.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClientOutcome {
    /// The secure channel reached `Established` (secure clients) or the
    /// TCP connection came up (plain/raw clients).
    pub established: bool,
    /// Plaintext echoed back through the channel (secure), or raw bytes
    /// echoed (plain).
    pub echoed: Vec<u8>,
    /// Every raw byte received over TCP, records and all.
    pub raw_rx: Vec<u8>,
    /// The guest ended the stream with an alert.
    pub peer_closed: bool,
    /// The client machine's sticky error, if it failed (`Debug` form).
    pub error: Option<String>,
}

/// Final values of one connection handle's guest-side counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConnCounters {
    /// Handshakes completed on this handle.
    pub handshakes: u16,
    /// Data records accepted (MAC verified, padding valid).
    pub records_in: u16,
    /// Data records sent.
    pub records_out: u16,
    /// Fatal alerts raised.
    pub alerts: u16,
}

/// Labels for the guest's per-kind alert counters, indexed by the
/// firmware's `fail(h, w)` reason code: `w=0` the close alert (bad
/// record type/length, MAC or padding damage — what link-layer
/// corruption draws), `w=1` the unsupported-suite alert, `w=2` the
/// bad-Finished alert (wrong credential).
pub const ALERT_KIND_LABELS: [&str; 3] = ["close", "suite", "finished"];

/// Result of one multi-client secure serving session.
#[derive(Debug)]
pub struct SecureRun {
    /// Per-client observations, in `clients` order.
    pub outcomes: Vec<ClientOutcome>,
    /// Per-handle guest counters, read back from the C globals.
    pub conns: Vec<ConnCounters>,
    /// Guest alerts by reason code, read back from the C `alert_kind`
    /// array (see [`ALERT_KIND_LABELS`]).
    pub alert_kinds: [u16; 3],
    /// Guest `naccepts` counter.
    pub accepts: u16,
    /// Guest `nopen` counter — 0 after an orderly teardown.
    pub open: u16,
    /// Peak simultaneously-open NIC connection handles, sampled at every
    /// epoch barrier.
    pub peak_open: usize,
    /// Guest cycles consumed (including halted idle cycles).
    pub cycles: u64,
    /// Guest instructions executed.
    pub instructions: u64,
    /// Final virtual time of the shared world, in microseconds.
    pub virtual_us: u64,
    /// Serial console output (`S<open-handles>\n` probe answers).
    pub serial_tx: Vec<u8>,
    /// Deterministic text snapshot of the world telemetry, including the
    /// guest's `board0.issl.guest.*` counters.
    pub snapshot: String,
    /// Root code size of the compiled firmware, in bytes.
    pub code_size: usize,
    /// Total bytes echoed back across all clients.
    pub echoed_bytes: u64,
    /// Cycle attribution by symbol, when profiling was requested.
    pub profile: Option<ProfileReport>,
}

pub(crate) enum Mode {
    Secure {
        machine: Box<SessionMachine>,
        tamper: Tamper,
        tampered: bool,
        next_msg: usize,
        sent: usize,
        closing: bool,
        closed: bool,
    },
    Plain {
        next_msg: usize,
        sent: usize,
        closed: bool,
    },
    Raw {
        payload: Vec<u8>,
        sent: bool,
        closed: bool,
    },
    HangUp {
        payload: Vec<u8>,
        sent: bool,
    },
}

pub(crate) struct Cs {
    pub(crate) mode: Mode,
    pub(crate) msgs: Vec<Vec<u8>>,
    pub(crate) expected: usize,
    pub(crate) out: ClientOutcome,
    pub(crate) fin: bool,
    pub(crate) reset: bool,
    pub(crate) done: bool,
}

impl Cs {
    /// Client `i`'s line in a stall report: what it is and how far it
    /// got.
    pub(crate) fn describe(&self, i: usize) -> String {
        let kind = match self.mode {
            Mode::Secure { .. } => "secure",
            Mode::Plain { .. } => "plain",
            Mode::Raw { .. } => "raw",
            Mode::HangUp { .. } => "hang-up",
        };
        format!(
            "client {i} ({kind}): established={}, echoed {}/{} bytes, {} raw bytes in, fin={}",
            self.out.established,
            self.out.echoed.len(),
            self.expected,
            self.out.raw_rx.len(),
            self.fin
        )
    }
}

/// Whether `rx` starts with one complete record.
fn record_complete(rx: &[u8]) -> bool {
    rx.len() >= recmap::HEADER_LEN
        && rx.len() >= recmap::HEADER_LEN + usize::from(u16::from_be_bytes([rx[1], rx[2]]))
}

pub(crate) fn step_client(host: &mut SimHost, conn: SocketId, st: &mut Cs) {
    // Drain the TCP receive buffer first; probe for the guest's FIN when
    // it is empty.
    let avail = host.available(conn);
    if avail > 0 {
        let mut buf = vec![0u8; avail];
        if let Recv::Data(n) = host.recv(conn, &mut buf) {
            buf.truncate(n);
            st.out.raw_rx.extend_from_slice(&buf);
            match &mut st.mode {
                Mode::Secure { machine, .. } => {
                    if machine.error().is_none() {
                        if let Err(e) = machine.feed(&buf) {
                            st.out.error = Some(format!("{e:?}"));
                        }
                    }
                }
                Mode::Plain { .. } => st.out.echoed.extend_from_slice(&buf),
                Mode::Raw { .. } | Mode::HangUp { .. } => {}
            }
        }
    } else {
        match host.recv(conn, &mut [0u8; 1]) {
            Recv::Closed => st.fin = true,
            Recv::Reset => {
                st.fin = true;
                st.reset = true;
            }
            _ => {}
        }
    }

    match &mut st.mode {
        Mode::Secure {
            machine,
            tamper,
            tampered,
            next_msg,
            sent,
            closing,
            closed,
        } => {
            if let Some(e) = machine.error() {
                if st.out.error.is_none() {
                    st.out.error = Some(format!("{e:?}"));
                }
            }
            st.out.established |= machine.is_established();
            st.out.peer_closed |= machine.is_peer_closed();
            let pt = machine.take_plaintext();
            if !pt.is_empty() {
                st.out.echoed.extend_from_slice(&pt);
            }

            let healthy =
                machine.is_established() && st.out.error.is_none() && !machine.is_peer_closed();
            if healthy && *tamper == Tamper::TruncateAfterHeader {
                if !*tampered {
                    // A data-record header promising one byte, then FIN.
                    host.send(conn, &[recmap::REC_DATA, 0, 1]);
                    host.close(conn);
                    *tampered = true;
                    *closed = true;
                }
            } else if healthy {
                if *next_msg < st.msgs.len() && st.out.echoed.len() == *sent {
                    let msg = st.msgs[*next_msg].clone();
                    if machine.write(&msg).is_ok() {
                        *sent += msg.len();
                    }
                    *next_msg += 1;
                } else if *tamper == Tamper::None
                    && !*closing
                    && *next_msg == st.msgs.len()
                    && st.out.echoed.len() == st.expected
                {
                    let _ = machine.close();
                    *closing = true;
                }
            }

            // Flush queued records (the ClientHello is queued before the
            // TCP handshake even completes).
            if machine.has_output() && !*closed && host.established(conn) {
                let mut out = machine.take_output();
                if *tamper == Tamper::FlipDataMac
                    && !*tampered
                    && out.first() == Some(&recmap::REC_DATA)
                {
                    if let Some(last) = out.last_mut() {
                        *last ^= 0x01;
                    }
                    *tampered = true;
                }
                let n = host.send(conn, &out);
                assert_eq!(n, out.len(), "client send fits the TCP buffer");
            }

            if *closing && !*closed && !machine.has_output() {
                host.close(conn);
                *closed = true;
            }

            // A FIN/RST before the session ran its course (the balancer
            // aborted a stalled session, or the backend died) terminates
            // the client with a recorded error; a clean run sets `closed`
            // or `peer_closed` before the FIN is ever observed.
            if st.fin && !*closed && !st.out.peer_closed && st.out.error.is_none() {
                st.out.error = Some(if st.reset { "Reset" } else { "EarlyClose" }.to_string());
            }
            st.done = match tamper {
                Tamper::None => {
                    *closed || st.out.error.is_some() || st.out.peer_closed || st.fin
                }
                Tamper::FlipDataMac => {
                    *tampered && (st.out.peer_closed || st.out.error.is_some() || st.fin)
                }
                Tamper::TruncateAfterHeader => *tampered && (st.out.peer_closed || st.fin),
            };
        }
        Mode::Plain {
            next_msg,
            sent,
            closed,
        } => {
            st.out.established |= host.established(conn);
            if *next_msg < st.msgs.len() && st.out.echoed.len() == *sent && host.established(conn)
            {
                let msg = &st.msgs[*next_msg];
                assert_eq!(host.send(conn, msg), msg.len(), "client send fits");
                *sent += msg.len();
                *next_msg += 1;
            }
            if st.out.echoed.len() == st.expected && !*closed {
                host.close(conn);
                *closed = true;
            }
            if st.fin && !*closed {
                // The echo never completed and the server side is gone
                // (stall abort or backend death): stop, with the cause.
                if st.out.error.is_none() {
                    st.out.error =
                        Some(if st.reset { "Reset" } else { "EarlyClose" }.to_string());
                }
                st.done = true;
            } else {
                st.done = *closed;
            }
        }
        Mode::Raw {
            payload,
            sent,
            closed,
        } => {
            st.out.established |= host.established(conn);
            if !*sent && host.established(conn) {
                let n = host.send(conn, payload);
                assert_eq!(n, payload.len(), "raw send fits");
                *sent = true;
            }
            st.done = *sent && (record_complete(&st.out.raw_rx) || st.fin);
            if st.done && !*closed {
                host.close(conn);
                *closed = true;
            }
        }
        Mode::HangUp { payload, sent } => {
            st.out.established |= host.established(conn);
            if !*sent && host.established(conn) {
                let n = host.send(conn, payload);
                assert_eq!(n, payload.len(), "hang-up send fits");
                *sent = true;
                // Disconnect mid-exchange: FIN right behind the payload.
                host.close(conn);
            }
            st.done = *sent && st.fin;
        }
    }

    if st.done {
        host.close(conn); // idempotent
    }
}

/// Builds the per-client driver state for `clients`, in order. The PRNG
/// seed depends only on the client index, so the same workload produces
/// the same ClientHello bytes on every topology.
pub(crate) fn client_states(clients: &[GuestClient]) -> Vec<Cs> {
    clients
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let (mode, msgs) = match c {
                GuestClient::Secure {
                    messages,
                    psk,
                    tamper,
                } => {
                    let config = ClientConfig {
                        suite: CipherSuite::AES128,
                        kx: ClientKx::PreShared(psk.clone()),
                    };
                    let machine = SessionMachine::client(config, Prng::new(0xC0DE + i as u64));
                    (
                        Mode::Secure {
                            machine: Box::new(machine),
                            tamper: *tamper,
                            tampered: false,
                            next_msg: 0,
                            sent: 0,
                            closing: false,
                            closed: false,
                        },
                        messages.clone(),
                    )
                }
                GuestClient::Plain { messages } => (
                    Mode::Plain {
                        next_msg: 0,
                        sent: 0,
                        closed: false,
                    },
                    messages.clone(),
                ),
                GuestClient::Raw { payload } => (
                    Mode::Raw {
                        payload: payload.clone(),
                        sent: false,
                        closed: false,
                    },
                    Vec::new(),
                ),
                GuestClient::HangUp { payload } => (
                    Mode::HangUp {
                        payload: payload.clone(),
                        sent: false,
                    },
                    Vec::new(),
                ),
            };
            Cs {
                expected: msgs.iter().map(Vec::len).sum(),
                mode,
                msgs,
                out: ClientOutcome::default(),
                fin: false,
                reset: false,
                done: false,
            }
        })
        .collect()
}

/// Runs the compiled-C secure server on one board, every client linked
/// straight to it: [`fleet_serve`] with no balancer, `psk` poked into
/// the board's C globals before boot, the profiler on when `profile` is
/// set, and the run reshaped as a [`SecureRun`].
///
/// # Panics
///
/// As [`fleet_serve`]; in particular if `psk` exceeds the guest's
/// 64-byte key buffer.
pub fn secure_serve(
    engine: Engine,
    opts: dcc::Options,
    psk: &[u8],
    clients: &[GuestClient],
    probe_gap_us: Option<u64>,
    profile: bool,
) -> SecureRun {
    let mut spec = FleetSpec::new(engine, 1, psk, clients.to_vec());
    spec.opts = opts;
    spec.policy = None;
    spec.probe_gap_us = probe_gap_us;
    spec.profile = profile;
    let run = fleet_serve(&spec);
    let board = run.boards.into_iter().next().expect("one board");
    SecureRun {
        outcomes: run.outcomes,
        conns: board.conns,
        alert_kinds: board.alert_kinds,
        accepts: board.accepts,
        open: board.open,
        peak_open: board.peak_open,
        cycles: board.cycles,
        instructions: board.instructions,
        virtual_us: run.virtual_us,
        serial_tx: board.serial_tx,
        snapshot: run.snapshot,
        code_size: run.code_size,
        echoed_bytes: run.echoed_bytes,
        profile: board.profile,
    }
}

// ---------------------------------------------------------------------------
// Differential tests: the guest's crypto vs the host reference
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    /// The crypto half under a bare test `main`, linked with the SHA-1
    /// module as the firmware links it: mode 0 hashes `hbuf[0..hlen]`,
    /// mode 1 builds slot 0/1's midstates from `hkey` and HMACs `hmsg`
    /// under them, mode 2 builds the PSK midstates as `main` does, runs
    /// the KDF for handle `kh`, then HMACs `tmsg` under the handle's
    /// client MAC slots (digest to `tdig`) and server MAC slots (`dig`).
    fn crypto_build() -> dcc::Build {
        let source = format!(
            "{}\nint mode;\nint kh;\nchar tmsg[64];\nint tmlen;\nchar tdig[20];\n\
             int main() {{\n\
                 int i;\n\
                 if (mode == 0) sha1_run();\n\
                 if (mode == 1) {{\n\
                     hmac_key(0);\n\
                     hmac_run(0);\n\
                 }}\n\
                 if (mode == 2) {{\n\
                     hmac_psk();\n\
                     kdf_run(kh);\n\
                     for (i = 0; i < tmlen; i = i + 1) hmsg[i] = tmsg[i];\n\
                     hmlen = tmlen;\n\
                     hmac_run((kh * 4) + 4);\n\
                     for (i = 0; i < 20; i = i + 1) tdig[i] = dig[i];\n\
                     hmac_run((kh * 4) + 6);\n\
                 }}\n\
                 return 0;\n\
             }}\n",
            crypto_c()
        );
        dcc::build_firmware_linked(
            &source,
            dcc::Options::firmware(),
            &[],
            &[&aes_rabbit::sha1_linked_module()],
        )
        .expect("crypto C compiles and links")
    }

    fn run_crypto(
        build: &dcc::Build,
        pokes: &[(&str, Vec<u8>)],
        mode: u16,
        reads: &[(&str, usize)],
    ) -> Vec<Vec<u8>> {
        let (mut cpu, mut mem) = build.machine();
        for (name, bytes) in pokes {
            build.write_bytes(&mut mem, name, bytes);
        }
        build.write_bytes(&mut mem, "_mode", &mode.to_le_bytes());
        build
            .run_prepared(&mut cpu, &mut mem, 400_000_000)
            .expect("crypto C halts");
        reads
            .iter()
            .map(|(name, len)| build.read_bytes(&mem, name, *len))
            .collect()
    }

    #[test]
    fn guest_sha1_matches_reference() {
        let build = crypto_build();
        for (case, len) in [0usize, 1, 55, 56, 64, 129].into_iter().enumerate() {
            let data: Vec<u8> = (0..len)
                .map(|k| (k as u8).wrapping_mul(31).wrapping_add(case as u8 * 7 + 5))
                .collect();
            let out = run_crypto(
                &build,
                &[
                    ("_hbuf", data.clone()),
                    ("_hlen", (len as u16).to_le_bytes().to_vec()),
                ],
                0,
                &[("_dig", 20)],
            );
            assert_eq!(out[0], crypto::sha1(&data).to_vec(), "len {len}");
        }
    }

    /// `hmac_key` then `hmac_run` against the host HMAC, over key lengths
    /// on both sides of the pad's 64 bytes and messages on both sides of
    /// the one-block padding edge, up to the longest data-record MAC
    /// input (1,088 B).
    #[test]
    fn guest_hmac_matches_reference() {
        let build = crypto_build();
        for klen in [0usize, 1, 20, 63, 64] {
            for mlen in [0usize, 55, 56, 119, 1088] {
                let key: Vec<u8> = (0..klen)
                    .map(|k| (k as u8).wrapping_mul(17).wrapping_add(3))
                    .collect();
                let msg: Vec<u8> = (0..mlen)
                    .map(|k| (k as u8).wrapping_mul(7).wrapping_add(11))
                    .collect();
                let out = run_crypto(
                    &build,
                    &[
                        ("_hkey", key.clone()),
                        ("_hklen", (klen as u16).to_le_bytes().to_vec()),
                        ("_hmsg", msg.clone()),
                        ("_hmlen", (mlen as u16).to_le_bytes().to_vec()),
                    ],
                    1,
                    &[("_dig", 20)],
                );
                assert_eq!(
                    out[0],
                    crypto::hmac_sha1(&key, &msg).to_vec(),
                    "klen {klen} mlen {mlen}"
                );
            }
        }
    }

    /// The KDF from the boot-time PSK midstates, for the first and the
    /// last handle (whose MAC-key slots end the table), and HMACs under
    /// the MAC-key midstates it leaves behind.
    #[test]
    fn guest_kdf_matches_reference() {
        let build = crypto_build();
        let psk = b"rmc2000 shared secret";
        let tmsg = b"a record under the session's MAC keys".to_vec();
        for h in [0usize, MAX_CONNS - 1] {
            // Transcript slot h: ClientHello body (18) then ServerHello
            // body (22).
            let slot: Vec<u8> = (0..40u8)
                .map(|k| k.wrapping_mul(13).wrapping_add(1 + h as u8))
                .collect();
            let mut tbuf = vec![0u8; 40 * h];
            tbuf.extend_from_slice(&slot);
            let out = run_crypto(
                &build,
                &[
                    ("_psk", psk.to_vec()),
                    ("_psklen", (psk.len() as u16).to_le_bytes().to_vec()),
                    ("_tbuf", tbuf),
                    ("_kh", (h as u16).to_le_bytes().to_vec()),
                    ("_tmsg", tmsg.clone()),
                    ("_tmlen", (tmsg.len() as u16).to_le_bytes().to_vec()),
                ],
                2,
                &[
                    ("_ckey", 48),
                    ("_skey", 48),
                    ("_cmac", 60),
                    ("_smac", 60),
                    ("_tdig", 20),
                    ("_dig", 20),
                ],
            );
            let keys = issl::kdf::derive_session_keys(psk, &slot[2..18], &slot[20..36], 16);
            let (ckey, skey) = (&out[0][16 * h..][..16], &out[1][16 * h..][..16]);
            let (cmac, smac) = (&out[2][20 * h..][..20], &out[3][20 * h..][..20]);
            assert_eq!(ckey, keys.client_write_key, "client write key, h {h}");
            assert_eq!(skey, keys.server_write_key, "server write key, h {h}");
            assert_eq!(cmac, keys.client_mac_key, "client MAC key, h {h}");
            assert_eq!(smac, keys.server_mac_key, "server MAC key, h {h}");
            let slot = 4 + 4 * h;
            assert_eq!(
                out[4],
                crypto::hmac_sha1(cmac, &tmsg).to_vec(),
                "HMAC under slot {slot}"
            );
            let slot = 6 + 4 * h;
            assert_eq!(
                out[5],
                crypto::hmac_sha1(smac, &tmsg).to_vec(),
                "HMAC under slot {slot}"
            );
        }
    }

    #[test]
    fn secure_firmware_compiles_and_links_under_both_option_sets() {
        for opts in [dcc::Options::baseline(), dcc::Options::all_optimizations()] {
            let build = build_secure_firmware(opts);
            for sym in [
                "_nic_isr",
                "_ser_isr",
                "_sha1_run",
                "_sha1_save",
                "_sha1_resume",
                "_hmac_psk",
                "_aes_enc",
                "_aes_dec",
            ] {
                assert!(build.symbol_phys(sym).is_some(), "symbol {sym}");
            }
            assert!(
                build
                    .image
                    .sections
                    .iter()
                    .any(|s| s.addr == NIC_VECTOR && s.bytes[0] == 0xC3),
                "NIC vector holds a jp"
            );
        }
    }

    #[test]
    fn const_shifts_shrink_the_image_and_keep_the_gap_below_the_sha1_module() {
        let c_end = |b: &dcc::Build| {
            let s = b
                .image
                .sections
                .iter()
                .find(|s| s.addr == dcc::layout::CODE_ORG)
                .expect("compiled C section");
            usize::from(s.addr) + s.bytes.len()
        };
        let gap = |b: &dcc::Build| usize::from(aes_rabbit::SHA1_LINKED_CODE_ORG) - c_end(b);
        let off = build_secure_firmware(dcc::Options::all_optimizations());
        let on = build_secure_firmware(dcc::Options::firmware());
        assert!(!on.asm.contains("__shl16") && !on.asm.contains("__shr16"));
        assert!(
            on.code_size() <= off.code_size(),
            "code {} > {}",
            on.code_size(),
            off.code_size()
        );
        assert!(gap(&on) >= gap(&off), "gap {} < {}", gap(&on), gap(&off));
    }

    /// Profilers attribute guest cycles by symbol name (`perfbench`'s
    /// `guest.share.sha1` counts every symbol containing `sha1`), so no
    /// label inside the module's code may name anything else.
    #[test]
    fn every_symbol_in_the_sha1_module_code_names_sha1() {
        let build = build_secure_firmware(dcc::Options::firmware());
        let code = build
            .image
            .sections
            .iter()
            .find(|s| s.addr == aes_rabbit::SHA1_LINKED_CODE_ORG)
            .expect("SHA-1 module code section");
        let range = usize::from(code.addr)..usize::from(code.addr) + code.bytes.len();
        let inside: Vec<&String> = build
            .image
            .symbols
            .iter()
            .filter(|(_, &a)| range.contains(&usize::from(a)))
            .map(|(name, _)| name)
            .collect();
        for entry in ["_sha1_run", "_sha1_save", "_sha1_resume"] {
            assert!(inside.iter().any(|n| *n == entry), "{entry} in range");
        }
        for name in inside {
            assert!(
                name.contains("sha1"),
                "symbol `{name}` inside the SHA-1 module"
            );
        }
    }

    #[test]
    #[should_panic(expected = "255 clients exceed the limit of 254 clients in 10.0.2.0/24")]
    fn refuses_a_client_past_the_subnet() {
        let clients = vec![GuestClient::secure(&[], b""); 255];
        let opts = dcc::Options::firmware();
        secure_serve(Engine::Interpreter, opts, b"", &clients, None, false);
    }

    #[test]
    fn serves_one_secure_client_end_to_end() {
        let psk = b"paper psk";
        let r = secure_serve(
            Engine::Interpreter,
            dcc::Options::all_optimizations(),
            psk,
            &[GuestClient::secure(&[b"secure echo!"], psk)],
            None,
            false,
        );
        assert_eq!(r.outcomes[0].echoed, b"secure echo!".to_vec());
        assert!(r.outcomes[0].established);
        assert_eq!(r.outcomes[0].error, None);
        assert_eq!(r.conns[0].handshakes, 1);
        assert_eq!(r.conns[0].records_in, 1);
        assert_eq!(r.conns[0].records_out, 1);
        assert_eq!(r.conns[0].alerts, 0);
        assert_eq!(r.accepts, 1);
        assert_eq!(r.open, 0, "teardown closed the handle");
        assert!(r.snapshot.contains("board0.issl.guest.handshakes"));
    }
}
