//! SHA-1 in hand-optimized Rabbit 2000 assembly, linked into `dcc`
//! firmware behind `extern void sha1_run();` — the hash's rung on the
//! paper's §6 C-versus-assembly ladder, beside the AES module in
//! [`crate::asm_impl`].
//!
//! The compiled C it replaces ([`sha1_c_source`]) works on 16-bit limb
//! pairs through `dcc`'s stack-machine code and spends about 196 k cycles
//! per 64-byte block. The module spends about 49 k, with these hand
//! optimizations:
//!
//! * the working variables live in a *sliding window*: round `t` writes
//!   its new `a` one slot below the old one and moves IX down, so the
//!   five-word shuffle at the end of every round costs nothing. Each
//!   slot holds the value and, beside it, the value rotated left by 30,
//!   so `c`, `d` and `e` are read pre-rotated and no round rotates a
//!   word in memory;
//! * the 32-bit sum is two 16-bit halves in HL and DE, swapped with
//!   `ex de,hl` between the low `add` and the high `adc`; `ex af,af'`
//!   parks the carry while the high half of `f` is computed;
//! * `rotl5(a)` for the next round is made from the new `a` while it is
//!   still in registers: a byte permutation (rotate by 8) and three
//!   `rr de`/`rr hl` steps;
//! * `f` is computed byte-wise through A with `(ix+d)` operands, `Maj`
//!   as `c ^ ((b ^ c) & (c ^ d))` so it needs no temporary;
//! * the message schedule is computed in place over an 80-word
//!   big-endian array walked by IY, with the one-bit rotate as
//!   `ld a,h; rla; rl de; adc hl,hl`.
//!
//! The 80 rounds are four loops of 20, one per round function, not an
//! unrolled sequence: the module stays near 650 assembler lines, which
//! keeps firmware builds fast.
//!
//! Beside the plain hash the module keeps a table of *midstates* — the
//! 20-byte chaining state after one 64-byte block — so HMAC can hash each
//! key's two pad blocks once per key instead of once per MAC (RFC 2104
//! §4). `_sha1_save` fills a slot, `_sha1_resume` hashes a message as if
//! it followed the slot's block; C code only ever names a slot number.

use rabbit::Engine;

use crate::AesRabbitError;

/// Code origin of the linkable SHA-1 module. Compiled C code must end
/// below it; the AES module ([`crate::LINKED_CODE_ORG`]) starts above it.
pub const SHA1_LINKED_CODE_ORG: u16 = 0x6800;
/// Private data origin of the linkable SHA-1 module (workspace, then the
/// midstate table): root data between the compiled C's data and the AES
/// workspace ([`crate::LINKED_DATA_ORG`]).
pub const SHA1_LINKED_DATA_ORG: u16 = 0xC700;

/// Slots in the module's midstate table, 20 bytes each. The secure
/// firmware keys them as: 0/1 the PSK's inner/outer pads, 2/3 the session
/// master key's, and `4 + 4h`/`6 + 4h` (inner, outer at `+ 1`) the client
/// and server MAC keys of connection handle `h` — so the count follows
/// [`rabbit::nicmap::MAX_CONNS`].
pub const SHA1_MIDSTATE_SLOTS: usize = 4 + 4 * rabbit::nicmap::MAX_CONNS;

/// Size of the `hbuf` the message is hashed in. Padding rounds
/// the message plus 9 bytes up to whole 64-byte blocks, in place, so the
/// longest message is `SHA1_HBUF_LEN - 9` bytes.
pub const SHA1_HBUF_LEN: usize = 1216;

/// Window slots: 80 rounds plus the five initial working variables.
const SLOTS: usize = 85;
/// Bytes per window slot: the value, then the value rotated left by 30.
const SLOT: usize = 8;

/// Round constants, one per 20-round group.
const K: [u32; 4] = [0x5A82_7999, 0x6ED9_EBA1, 0x8F1B_BCDC, 0xCA62_C1D6];

/// Window offsets (from IX) of byte `i` of the current round's `b`
/// (plain), `c`, `d` and `e` (all three stored rotated); `a` is at 0.
fn b(i: usize) -> usize {
    SLOT + i
}
fn c(i: usize) -> usize {
    2 * SLOT + 4 + i
}
fn d(i: usize) -> usize {
    3 * SLOT + 4 + i
}
fn e(i: usize) -> usize {
    4 * SLOT + 4 + i
}

/// Byte `i` of the group's round function, left in `dst` (for `Maj`,
/// `dst` doubles as the temporary).
fn f_byte(group: usize, i: usize, dst: char) -> String {
    let (b, c, d) = (b(i), c(i), d(i));
    match group {
        // Ch = d ^ (b & (c ^ d))
        0 => format!(
            "        ld a, (ix+{c})\n        xor (ix+{d})\n        and (ix+{b})\n        xor (ix+{d})\n        ld {dst}, a\n"
        ),
        // Maj = c ^ ((b ^ c) & (c ^ d))
        2 => format!(
            "        ld a, (ix+{b})\n        xor (ix+{c})\n        ld {dst}, a\n        ld a, (ix+{c})\n        xor (ix+{d})\n        and {dst}\n        xor (ix+{c})\n        ld {dst}, a\n"
        ),
        // Parity = b ^ c ^ d
        _ => format!(
            "        ld a, (ix+{b})\n        xor (ix+{c})\n        xor (ix+{d})\n        ld {dst}, a\n"
        ),
    }
}

/// Pushes the 32-bit value in HL (high) : DE (low) into the window as the
/// new `a`: stores it and its left-rotate-by-30 one slot below IX, moves
/// IX down a slot, and leaves `rotl5(value)` in HL (low) : DE (high) for
/// the next round. Clobbers A and BC.
fn push_a() -> String {
    "        ld (ix-8), e\n\
     \x20       ld (ix-7), d\n\
     \x20       ld (ix-6), l\n\
     \x20       ld (ix-5), h\n\
     \x20       ld a, e\n\
     \x20       rra\n\
     \x20       rr hl\n\
     \x20       rr de\n\
     \x20       ld a, e\n\
     \x20       rra\n\
     \x20       rr hl\n\
     \x20       rr de\n\
     \x20       ld (ix-4), e\n\
     \x20       ld (ix-3), d\n\
     \x20       ld (ix-2), l\n\
     \x20       ld (ix-1), h\n\
     \x20       ld a, h\n\
     \x20       ld h, e\n\
     \x20       ld e, d\n\
     \x20       ld d, l\n\
     \x20       ld l, a\n\
     \x20       rra\n\
     \x20       rr de\n\
     \x20       rr hl\n\
     \x20       ld bc, -8\n\
     \x20       add ix, bc\n"
        .to_string()
}

/// One 20-round group: `a' = rotl5(a) + e + W[t] + K + f(b, c, d)`, with
/// `rotl5(a)` arriving in HL (low) : DE (high) and B' counting rounds.
fn round_group(group: usize) -> String {
    let k = K[group];
    let add_mem = |lo: [String; 2], hi: [String; 2]| {
        format!(
            "        ld c, {}\n        ld b, {}\n        add hl, bc\n        ex de, hl\n        ld c, {}\n        ld b, {}\n        adc hl, bc\n        ex de, hl\n",
            lo[0], lo[1], hi[0], hi[1]
        )
    };
    let e = |i: usize| format!("(ix+{})", e(i));
    let w = |i: usize| format!("(iy+{})", 3 - i);
    format!(
        "        exx\n\
         \x20       ld b, 20\n\
         \x20       exx\n\
         sha1_r{group}:\n\
         {add_e}\
         {add_w}\
         \x20       ld bc, {klo:#06x}\n\
         \x20       add hl, bc\n\
         \x20       ex de, hl\n\
         \x20       ld bc, {khi:#06x}\n\
         \x20       adc hl, bc\n\
         \x20       ex de, hl\n\
         {f0}\
         {f1}\
         \x20       add hl, bc\n\
         \x20       ex af, af'\n\
         {f2}\
         {f3}\
         \x20       ex af, af'\n\
         \x20       ex de, hl\n\
         \x20       adc hl, bc\n\
         {push}\
         \x20       ld bc, 4\n\
         \x20       add iy, bc\n\
         \x20       exx\n\
         \x20       dec b\n\
         \x20       exx\n\
         \x20       jp nz, sha1_r{group}\n",
        add_e = add_mem([e(0), e(1)], [e(2), e(3)]),
        add_w = add_mem([w(0), w(1)], [w(2), w(3)]),
        klo = k & 0xFFFF,
        khi = k >> 16,
        f0 = f_byte(group, 0, 'c'),
        f1 = f_byte(group, 1, 'b'),
        f2 = f_byte(group, 2, 'c'),
        f3 = f_byte(group, 3, 'b'),
        push = push_a(),
    )
}

/// `W[t] = rotl1(W[t-3] ^ W[t-8] ^ W[t-14] ^ W[t-16])` for t = 16..80,
/// big-endian words, IY walking `W[t]`.
fn schedule() -> String {
    let mut s = String::from(
        "        ld iy, sha1_w+64\n\
         \x20       exx\n\
         \x20       ld b, 64\n\
         sha1_sched:\n\
         \x20       exx\n",
    );
    for (i, r) in ["h", "l", "d", "e"].iter().enumerate() {
        s.push_str(&format!(
            "        ld a, (iy-{})\n        xor (iy-{})\n        xor (iy-{})\n        xor (iy-{})\n        ld {r}, a\n",
            12 - i,
            32 - i,
            56 - i,
            64 - i
        ));
    }
    s.push_str(
        "        ld a, h\n\
         \x20       rla\n\
         \x20       rl de\n\
         \x20       adc hl, hl\n\
         \x20       ld (iy+0), h\n\
         \x20       ld (iy+1), l\n\
         \x20       ld (iy+2), d\n\
         \x20       ld (iy+3), e\n\
         \x20       ld bc, 4\n\
         \x20       add iy, bc\n\
         \x20       exx\n\
         \x20       djnz sha1_sched\n\
         \x20       exx\n",
    );
    s
}

/// Generates the *linkable* SHA-1 module: three entry points that a
/// `dcc`-compiled firmware declares `extern void sha1_run();` (and
/// likewise `sha1_save`, `sha1_resume`), over the C globals `char hbuf[]`,
/// `int hlen`, `char dig[20]` and `int hslot`:
///
/// * `_sha1_run` — the compiled C's contract ([`sha1_c_source`]): hashes
///   `hbuf[0..hlen]` (at most [`SHA1_HBUF_LEN`]` - 9` bytes), padding it
///   in place (`0x80`, zeros, the 64-bit bit length), and writes the
///   digest to `dig`;
/// * `_sha1_save` — hashes `hbuf[0..64]` as one unpadded block from the
///   IV and stores the chaining state in midstate slot `hslot`; `dig` is
///   left alone;
/// * `_sha1_resume` — as `_sha1_run`, but starts from slot `hslot` instead
///   of the IV and counts the slot's 64 bytes in the bit length, so
///   `save(P)` then `resume(M)` writes `SHA-1(P ‖ M)`.
///
/// `hslot` must be below [`SHA1_MIDSTATE_SLOTS`]; the table is private to
/// the module, so C code never reads or writes midstate bytes.
///
/// Layout: code at [`SHA1_LINKED_CODE_ORG`], private workspace (hash
/// state, the 80-word schedule, the 85-slot window, the midstate table)
/// at [`SHA1_LINKED_DATA_ORG`]. The C globals must be root data (the
/// firmware options keep `root_data` on). Every label contains `sha1`,
/// so name-based profilers attribute the module's cycles to SHA-1.
///
/// Interrupt safety: the routines use A, BC, DE, HL, IX, IY, B', the
/// alternate AF and the caller's stack. Compiled C never emits IX/IY,
/// `exx` or `ex af,af'`, and ISR prologues save the main set, so a C
/// interrupt handler may preempt the module — but must not *call back*
/// into it: the workspace and `hslot` are shared by all three entries.
/// The secure firmware fills the PSK slots in `main` before it enables
/// the NIC interrupt, and every later call comes from `nic_isr`.
pub fn sha1_linked_module() -> String {
    let mut fin = String::new();
    for (word, off) in [0, b(0), c(0), d(0), e(0)].into_iter().enumerate() {
        let h = 4 * word;
        fin.push_str(&format!(
            "        ld hl, (sha1_h+{h})\n        ld e, (ix+{})\n        ld d, (ix+{})\n        add hl, de\n        ld (sha1_h+{h}), hl\n        ld hl, (sha1_h+{})\n        ld e, (ix+{})\n        ld d, (ix+{})\n        adc hl, de\n        ld (sha1_h+{}), hl\n",
            off,
            off + 1,
            h + 2,
            off + 2,
            off + 3,
            h + 2
        ));
    }
    let mut digest = String::new();
    for i in 0..20 {
        digest.push_str(&format!(
            "        ld a, (sha1_h+{})\n        ld (_dig+{i}), a\n",
            (i & !3) + 3 - (i & 3)
        ));
    }
    let iv: Vec<String> = [
        0x6745_2301u32,
        0xEFCD_AB89,
        0x98BA_DCFE,
        0x1032_5476,
        0xC3D2_E1F0,
    ]
    .iter()
    .flat_map(|w| w.to_le_bytes())
    .map(|b| format!("{b:#04x}"))
    .collect();
    let top = SLOTS - 3; // the slot `c` starts in
    format!(
        "; SHA-1 linkable module (hand assembly)\n\
        \x20       org {code_org:#06x}\n\
         _sha1_run:\n\
        \x20       ld hl, sha1_iv\n\
        \x20       ld bc, 0\n\
        \x20       jr sha1_pad\n\
         _sha1_resume:\n\
        \x20       call sha1_slot\n\
        \x20       ld bc, 64\n\
         ; ---- HL = chaining state to start from, BC = bytes it has hashed\n\
         sha1_pad:\n\
        \x20       push bc\n\
        \x20       ld de, sha1_h\n\
        \x20       ld bc, 20\n\
        \x20       ldir\n\
        \x20       pop bc\n\
        \x20       ld hl, (_hlen)     ; bit count = (BC + hlen) * 8, 16 bits\n\
        \x20       add hl, bc\n\
        \x20       add hl, hl\n\
        \x20       add hl, hl\n\
        \x20       add hl, hl\n\
        \x20       push hl\n\
         ; ---- pad hbuf[0..hlen]: 0x80, zeros, 64-bit big-endian bit count\n\
        \x20       ld hl, (_hlen)\n\
        \x20       ld de, _hbuf\n\
        \x20       add hl, de\n\
        \x20       ld (hl), 0x80\n\
        \x20       ld hl, (_hlen)\n\
        \x20       ld de, 72\n\
        \x20       add hl, de\n\
        \x20       add hl, hl\n\
        \x20       add hl, hl\n\
        \x20       ld a, h            ; blocks = (hlen + 72) / 64\n\
        \x20       ld (sha1_nb), a\n\
        \x20       ld l, a\n\
        \x20       ld h, 0\n\
        \x20       add hl, hl\n\
        \x20       add hl, hl\n\
        \x20       add hl, hl\n\
        \x20       add hl, hl\n\
        \x20       add hl, hl\n\
        \x20       add hl, hl\n\
        \x20       ld de, _hbuf\n\
        \x20       add hl, de\n\
        \x20       ex de, hl          ; DE = end of the padded message\n\
        \x20       ld hl, (_hlen)\n\
        \x20       ld bc, _hbuf+1\n\
        \x20       add hl, bc\n\
        \x20       ex de, hl\n\
        \x20       xor a\n\
        \x20       sbc hl, de\n\
        \x20       ld b, h\n\
        \x20       ld c, l\n\
        \x20       dec bc\n\
        \x20       ld h, d\n\
        \x20       ld l, e\n\
        \x20       ld (hl), 0\n\
        \x20       inc de\n\
        \x20       ldir               ; zero hbuf[hlen+1 .. end), HL = end - 1\n\
        \x20       pop de\n\
        \x20       ld (hl), e\n\
        \x20       dec hl\n\
        \x20       ld (hl), d\n\
        \x20       ld hl, _hbuf\n\
        \x20       ld (sha1_p), hl\n\
        \x20       call sha1_blocks\n\
         ; ---- digest: the state words, big-endian -----------------------\n\
         {digest}\
        \x20       ret\n\
         ; ---- hbuf[0..64] as one unpadded block from the IV, into slot hslot\n\
         _sha1_save:\n\
        \x20       ld hl, sha1_iv\n\
        \x20       ld de, sha1_h\n\
        \x20       ld bc, 20\n\
        \x20       ldir\n\
        \x20       ld hl, _hbuf\n\
        \x20       ld (sha1_p), hl\n\
        \x20       ld a, 1\n\
        \x20       ld (sha1_nb), a\n\
        \x20       call sha1_blocks\n\
        \x20       call sha1_slot\n\
        \x20       ex de, hl\n\
        \x20       ld hl, sha1_h\n\
        \x20       ld bc, 20\n\
        \x20       ldir\n\
        \x20       ret\n\
         ; ---- HL = sha1_mid + 20 * hslot --------------------------------\n\
         sha1_slot:\n\
        \x20       ld hl, (_hslot)\n\
        \x20       add hl, hl\n\
        \x20       add hl, hl\n\
        \x20       ld d, h\n\
        \x20       ld e, l\n\
        \x20       add hl, hl\n\
        \x20       add hl, hl\n\
        \x20       add hl, de\n\
        \x20       ld de, sha1_mid\n\
        \x20       add hl, de\n\
        \x20       ret\n\
         ; ---- sha1_nb 64-byte blocks from sha1_p into sha1_h, one per pass\n\
         sha1_blocks:\n\
        \x20       ld hl, (sha1_p)\n\
        \x20       ld de, sha1_w\n\
        \x20       ld bc, 64\n\
        \x20       ldir\n\
        \x20       ld (sha1_p), hl\n\
         {schedule}\
         ; window: c, d, e pre-rotated in the top slots, then push b and a\n\
        \x20       ld hl, (sha1_h+8)\n\
        \x20       ld de, (sha1_h+10)\n\
        \x20       ld (sha1_s+{c0}), hl\n\
        \x20       ld (sha1_s+{c0}+2), de\n\
        \x20       ld hl, (sha1_h+12)\n\
        \x20       ld de, (sha1_h+14)\n\
        \x20       ld (sha1_s+{d0}), hl\n\
        \x20       ld (sha1_s+{d0}+2), de\n\
        \x20       ld hl, (sha1_h+16)\n\
        \x20       ld de, (sha1_h+18)\n\
        \x20       ld (sha1_s+{e0}), hl\n\
        \x20       ld (sha1_s+{e0}+2), de\n\
        \x20       ld ix, sha1_s+{ix0}\n\
        \x20       ld de, (sha1_h+4)\n\
        \x20       ld hl, (sha1_h+6)\n\
         {push}\
        \x20       ld de, (sha1_h+0)\n\
        \x20       ld hl, (sha1_h+2)\n\
         {push}\
        \x20       ld iy, sha1_w\n\
         {r0}\
         {r1}\
         {r2}\
         {r3}\
         ; ---- fold the final a..e (window bottom) into the state ---------\n\
         {fin}\
        \x20       ld a, (sha1_nb)\n\
        \x20       dec a\n\
        \x20       ld (sha1_nb), a\n\
        \x20       jp nz, sha1_blocks\n\
        \x20       ret\n\
         sha1_iv:\n\
        \x20       db {iv}\n\
         \n\
         ; ---- private workspace and midstate table (root data) -----------\n\
        \x20       org {data_org:#06x}\n\
         sha1_h:  ds 20\n\
         sha1_p:  dw 0\n\
         sha1_nb: db 0\n\
         sha1_w:  ds 320\n\
         sha1_s:  ds {win}\n\
         sha1_mid: ds {mid}\n",
        code_org = SHA1_LINKED_CODE_ORG,
        data_org = SHA1_LINKED_DATA_ORG,
        schedule = schedule(),
        c0 = top * SLOT + 4,
        d0 = (top + 1) * SLOT + 4,
        e0 = (top + 2) * SLOT + 4,
        ix0 = top * SLOT,
        push = push_a(),
        r0 = round_group(0),
        r1 = round_group(1),
        r2 = round_group(2),
        r3 = round_group(3),
        iv = iv.join(", "),
        win = SLOTS * SLOT,
        mid = SHA1_MIDSTATE_SLOTS * 20,
    )
}

/// The compiled-C SHA-1 the secure firmware ran before the module: the
/// same `hbuf`/`hlen`/`dig` contract on 16-bit limb pairs (`*_hi`/`*_lo`)
/// with explicit carry propagation, since the Dynamic C subset has no
/// 32-bit arithmetic. Kept as the C rung of the ladder; it declares its
/// own globals, so it compiles stand-alone under any test `main`.
pub fn sha1_c_source() -> String {
    format!(
        "char hbuf[{SHA1_HBUF_LEN}];\n\
         int hlen;\n\
         char dig[20];\n\
         int w_hi[80];\n\
         int w_lo[80];\n\
         int s_hi[5];\n\
         int s_lo[5];\n\
         {SHA1_C_BODY}"
    )
}

const SHA1_C_BODY: &str = "\
void sha1_run() {
    int n; int i; int j; int t; int bits;
    int a_hi; int a_lo; int b_hi; int b_lo; int c_hi; int c_lo;
    int d_hi; int d_lo; int e_hi; int e_lo;
    int f_hi; int f_lo; int k_hi; int k_lo;
    int t_hi; int t_lo; int u_hi; int u_lo;
    n = hlen;
    bits = n << 3;
    hbuf[n] = 128;
    n = n + 1;
    while ((n & 63) != 56) { hbuf[n] = 0; n = n + 1; }
    for (i = 0; i < 6; i = i + 1) { hbuf[n] = 0; n = n + 1; }
    hbuf[n] = (bits >> 8) & 255;
    hbuf[n + 1] = bits & 255;
    n = n + 2;
    s_hi[0] = 0x6745; s_lo[0] = 0x2301;
    s_hi[1] = 0xEFCD; s_lo[1] = 0xAB89;
    s_hi[2] = 0x98BA; s_lo[2] = 0xDCFE;
    s_hi[3] = 0x1032; s_lo[3] = 0x5476;
    s_hi[4] = 0xC3D2; s_lo[4] = 0xE1F0;
    j = 0;
    while (j < n) {
        for (i = 0; i < 16; i = i + 1) {
            t = j + (i << 2);
            w_hi[i] = (hbuf[t] << 8) | hbuf[t + 1];
            w_lo[i] = (hbuf[t + 2] << 8) | hbuf[t + 3];
        }
        for (i = 16; i < 80; i = i + 1) {
            u_hi = ((w_hi[i - 3] ^ w_hi[i - 8]) ^ w_hi[i - 14]) ^ w_hi[i - 16];
            u_lo = ((w_lo[i - 3] ^ w_lo[i - 8]) ^ w_lo[i - 14]) ^ w_lo[i - 16];
            w_hi[i] = (u_hi << 1) | (u_lo >> 15);
            w_lo[i] = (u_lo << 1) | (u_hi >> 15);
        }
        a_hi = s_hi[0]; a_lo = s_lo[0];
        b_hi = s_hi[1]; b_lo = s_lo[1];
        c_hi = s_hi[2]; c_lo = s_lo[2];
        d_hi = s_hi[3]; d_lo = s_lo[3];
        e_hi = s_hi[4]; e_lo = s_lo[4];
        for (i = 0; i < 80; i = i + 1) {
            if (i < 20) {
                f_hi = (b_hi & c_hi) | ((~b_hi) & d_hi);
                f_lo = (b_lo & c_lo) | ((~b_lo) & d_lo);
                k_hi = 0x5A82; k_lo = 0x7999;
            } else if (i < 40) {
                f_hi = (b_hi ^ c_hi) ^ d_hi;
                f_lo = (b_lo ^ c_lo) ^ d_lo;
                k_hi = 0x6ED9; k_lo = 0xEBA1;
            } else if (i < 60) {
                f_hi = ((b_hi & c_hi) | (b_hi & d_hi)) | (c_hi & d_hi);
                f_lo = ((b_lo & c_lo) | (b_lo & d_lo)) | (c_lo & d_lo);
                k_hi = 0x8F1B; k_lo = 0xBCDC;
            } else {
                f_hi = (b_hi ^ c_hi) ^ d_hi;
                f_lo = (b_lo ^ c_lo) ^ d_lo;
                k_hi = 0xCA62; k_lo = 0xC1D6;
            }
            t_hi = (a_hi << 5) | (a_lo >> 11);
            t_lo = (a_lo << 5) | (a_hi >> 11);
            t_lo = t_lo + f_lo;
            if (t_lo < f_lo) t_hi = t_hi + 1;
            t_hi = t_hi + f_hi;
            t_lo = t_lo + e_lo;
            if (t_lo < e_lo) t_hi = t_hi + 1;
            t_hi = t_hi + e_hi;
            t_lo = t_lo + k_lo;
            if (t_lo < k_lo) t_hi = t_hi + 1;
            t_hi = t_hi + k_hi;
            t_lo = t_lo + w_lo[i];
            if (t_lo < w_lo[i]) t_hi = t_hi + 1;
            t_hi = t_hi + w_hi[i];
            e_hi = d_hi; e_lo = d_lo;
            d_hi = c_hi; d_lo = c_lo;
            c_hi = (b_hi >> 2) | (b_lo << 14);
            c_lo = (b_lo >> 2) | (b_hi << 14);
            b_hi = a_hi; b_lo = a_lo;
            a_hi = t_hi; a_lo = t_lo;
        }
        s_lo[0] = s_lo[0] + a_lo;
        if (s_lo[0] < a_lo) s_hi[0] = s_hi[0] + 1;
        s_hi[0] = s_hi[0] + a_hi;
        s_lo[1] = s_lo[1] + b_lo;
        if (s_lo[1] < b_lo) s_hi[1] = s_hi[1] + 1;
        s_hi[1] = s_hi[1] + b_hi;
        s_lo[2] = s_lo[2] + c_lo;
        if (s_lo[2] < c_lo) s_hi[2] = s_hi[2] + 1;
        s_hi[2] = s_hi[2] + c_hi;
        s_lo[3] = s_lo[3] + d_lo;
        if (s_lo[3] < d_lo) s_hi[3] = s_hi[3] + 1;
        s_hi[3] = s_hi[3] + d_hi;
        s_lo[4] = s_lo[4] + e_lo;
        if (s_lo[4] < e_lo) s_hi[4] = s_hi[4] + 1;
        s_hi[4] = s_hi[4] + e_hi;
        j = j + 64;
    }
    for (i = 0; i < 5; i = i + 1) {
        t = i << 2;
        dig[t] = (s_hi[i] >> 8) & 255;
        dig[t + 1] = s_hi[i] & 255;
        dig[t + 2] = (s_lo[i] >> 8) & 255;
        dig[t + 3] = s_lo[i] & 255;
    }
}
";

/// Which SHA-1 implementation a [`Sha1Rig`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sha1Implementation {
    /// [`sha1_c_source`], compiled by `dcc` with the given switches.
    CompiledC(dcc::Options),
    /// [`sha1_linked_module`], linked under a `main` compiled with
    /// `dcc::Options::firmware()`.
    LinkedAsm,
}

/// One SHA-1 implementation built under a bare `main`, ready to hash
/// messages on either engine. The compiled C's `main` calls `sha1_run()`
/// once; the module's calls the entry its `mode` global names, which
/// also reaches `sha1_save` and `sha1_resume` (see [`Sha1Machine`]).
#[derive(Debug, Clone)]
pub struct Sha1Rig {
    build: dcc::Build,
}

/// Cycle budget of one [`Sha1Machine`] call.
const SHA1_MAX_CYCLES: u64 = 100_000_000;

impl Sha1Rig {
    /// Builds `imp` under that `main`.
    ///
    /// # Errors
    ///
    /// [`AesRabbitError::Build`] when compiling or linking fails.
    pub fn new(imp: Sha1Implementation) -> Result<Sha1Rig, AesRabbitError> {
        let build = match imp {
            Sha1Implementation::CompiledC(opts) => dcc::build(
                &format!(
                    "{}int mode;\nint main() {{\n    sha1_run();\n    return 0;\n}}\n",
                    sha1_c_source()
                ),
                opts,
            ),
            Sha1Implementation::LinkedAsm => dcc::build_firmware_linked(
                &format!(
                    "char hbuf[{SHA1_HBUF_LEN}];\nint hlen;\nchar dig[20];\nint hslot;\nint mode;\n\
                     extern void sha1_run();\nextern void sha1_save();\nextern void sha1_resume();\n\
                     int main() {{\n\
                         if (mode == 0) sha1_run();\n\
                         if (mode == 1) sha1_save();\n\
                         if (mode == 2) sha1_resume();\n\
                         return 0;\n\
                     }}\n"
                ),
                dcc::Options::firmware(),
                &[],
                &[&sha1_linked_module()],
            ),
        }
        .map_err(|e| AesRabbitError::Build(e.to_string()))?;
        Ok(Sha1Rig { build })
    }

    /// A fresh machine running this rig on `engine`.
    #[must_use]
    pub fn machine(&self, engine: Engine) -> Sha1Machine<'_> {
        let (cpu, mem) = self.build.machine();
        Sha1Machine {
            rig: self,
            engine,
            cpu,
            mem,
        }
    }

    /// Hashes `msg` on a fresh machine on `engine`: returns the digest
    /// the guest wrote to `dig` and the cycles of the whole run (`main`'s
    /// call and return included).
    ///
    /// # Errors
    ///
    /// [`AesRabbitError::Run`] on a fault or a run that does not halt.
    ///
    /// # Panics
    ///
    /// Panics when `msg` is longer than `SHA1_HBUF_LEN - 9` bytes.
    pub fn hash(&self, engine: Engine, msg: &[u8]) -> Result<([u8; 20], u64), AesRabbitError> {
        self.machine(engine).hash(msg)
    }
}

/// One guest machine of a [`Sha1Rig`], kept across calls: each call
/// reruns `main` over the same memory, so the midstates one call saves
/// are there for the next. The midstate calls need a
/// [`Sha1Implementation::LinkedAsm`] rig.
pub struct Sha1Machine<'r> {
    rig: &'r Sha1Rig,
    engine: Engine,
    cpu: rabbit::Cpu,
    mem: rabbit::Memory,
}

impl Sha1Machine<'_> {
    /// Reruns `main` with `mode` (ignored by the compiled C) and returns
    /// the run's cycles.
    fn call(&mut self, mode: u16) -> Result<u64, AesRabbitError> {
        let b = &self.rig.build;
        b.write_bytes(&mut self.mem, "_mode", &mode.to_le_bytes());
        let start = self.cpu.cycles;
        self.cpu.halted = false;
        self.cpu.regs.pc = dcc::layout::CODE_ORG;
        b.run_prepared_on(self.engine, &mut self.cpu, &mut self.mem, SHA1_MAX_CYCLES)
            .map_err(|e| AesRabbitError::Run(e.to_string()))?;
        Ok(self.cpu.cycles - start)
    }

    fn put_message(&mut self, msg: &[u8]) {
        assert!(
            msg.len() + 9 <= SHA1_HBUF_LEN,
            "message fits hbuf with padding"
        );
        let b = &self.rig.build;
        b.write_bytes(&mut self.mem, "_hbuf", msg);
        b.write_bytes(&mut self.mem, "_hlen", &(msg.len() as u16).to_le_bytes());
    }

    fn digest(&self) -> [u8; 20] {
        let mut dig = [0u8; 20];
        dig.copy_from_slice(&self.rig.build.read_bytes(&self.mem, "_dig", 20));
        dig
    }

    fn put_slot(&mut self, slot: usize) {
        assert!(slot < SHA1_MIDSTATE_SLOTS, "slot {slot} out of range");
        let b = &self.rig.build;
        b.write_bytes(&mut self.mem, "_hslot", &(slot as u16).to_le_bytes());
    }

    /// `sha1_run()` over `msg`: the digest and the run's cycles.
    ///
    /// # Errors
    ///
    /// [`AesRabbitError::Run`] on a fault or a run that does not halt.
    ///
    /// # Panics
    ///
    /// Panics when `msg` is longer than `SHA1_HBUF_LEN - 9` bytes.
    pub fn hash(&mut self, msg: &[u8]) -> Result<([u8; 20], u64), AesRabbitError> {
        self.put_message(msg);
        let cycles = self.call(0)?;
        Ok((self.digest(), cycles))
    }

    /// `sha1_save()` of `block` into `slot`: the run's cycles.
    ///
    /// # Errors
    ///
    /// As [`Sha1Machine::hash`].
    ///
    /// # Panics
    ///
    /// Panics when `slot` is not below [`SHA1_MIDSTATE_SLOTS`].
    pub fn save(&mut self, slot: usize, block: &[u8; 64]) -> Result<u64, AesRabbitError> {
        self.put_slot(slot);
        self.put_message(block);
        self.call(1)
    }

    /// `sha1_resume()` from `slot` over `msg`: the digest of the slot's
    /// block followed by `msg`, and the run's cycles.
    ///
    /// # Errors
    ///
    /// As [`Sha1Machine::hash`].
    ///
    /// # Panics
    ///
    /// As [`Sha1Machine::hash`] and [`Sha1Machine::save`].
    pub fn resume(&mut self, slot: usize, msg: &[u8]) -> Result<([u8; 20], u64), AesRabbitError> {
        self.put_slot(slot);
        self.put_message(msg);
        let cycles = self.call(2)?;
        Ok((self.digest(), cycles))
    }

    /// The module's whole midstate table, [`SHA1_MIDSTATE_SLOTS`] × 20
    /// bytes.
    #[must_use]
    pub fn midstates(&self) -> Vec<u8> {
        self.rig
            .build
            .read_bytes(&self.mem, "sha1_mid", SHA1_MIDSTATE_SLOTS * 20)
    }
}
