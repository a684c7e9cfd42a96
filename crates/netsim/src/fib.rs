//! Compiled forwarding tables (FIBs).
//!
//! Dynamic [`Router`](crate::routing::Router)s answer `route()` by scanning
//! pattern tables behind a `Box<dyn>` — fine for topology construction,
//! wasteful when the same question is asked once per packet per hop. Since
//! every destination a packet can carry is bound in the simulation's address
//! book *before* the run starts, the whole forwarding function of a switch
//! can be flattened at build time.
//!
//! A router flattens itself into a [`CompiledFib`]: one four-byte entry per
//! bound destination — a fixed port, a hash-spread group or a miss. The sim
//! does not keep that table. It folds it into one [`FibTables`] shared by
//! every switch, laid out like the two-level prefix/suffix tables of a fat
//! tree:
//!
//! * a prefix index maps an address's /24 prefix to a small **prefix id**
//!   (one array load over the span of bound prefixes);
//! * each switch keeps a **row**: one block id per prefix id;
//! * a **block** holds 256 two-byte entries indexed by the address's last
//!   octet: a port, a miss, or the index of an interned `(group, shift,
//!   salt)` hash descriptor.
//!
//! Blocks, descriptors and port groups are interned once per sim. In a fat
//! tree nearly every block repeats — the whole k = 8 fleet compiles to 11
//! distinct blocks, k = 16 to 19 — so the tables take 34 KiB on k = 8 and
//! 213 KiB on k = 16, where one 16-byte entry per (switch, address) plus a
//! per-address index took 4.26 MiB and 159 MiB (`tests/fib_memory.rs`).
//!
//! Interned blocks are immutable. Demoting the entries behind a failed port
//! (`FibTables::demote_port`) builds a changed copy and points only the
//! endpoint's row at it, so switches that share the original block keep
//! their compiled answers.
//!
//! A per-packet lookup is four array loads plus (for ECMP entries) the same
//! `mix64` hash the dynamic router uses — bit-identical port choices by
//! construction, pinned by the exhaustive differential tests in `xmp-topo`.
//! Destinations a router cannot compile (or addresses outside the book)
//! fall back to the dynamic router, preserving its behaviour including "no
//! route" panics. So does a switch whose table does not fit the two-byte
//! entry space: it stays uncompiled rather than alias one entry to another.
//! The port limit holds per table, but the descriptor space is one pool per
//! sim: once earlier switches have interned 32 768 descriptors, a later
//! switch that needs a new one stays uncompiled even if its own table is
//! small, so which switch that is depends on compile order. Routers that
//! salt per destination ([`EcmpRouter`](crate::routing::EcmpRouter)) use
//! one descriptor per (group, destination) and reach that limit first; no
//! in-tree topology builds one.

use crate::addr::Addr;
use crate::hash::FxHashMap;
use crate::node::{NodeId, PortId};
use crate::packet::FlowId;
use crate::routing::mix64;

/// A switch's forwarding table as its router compiles it: one entry per
/// destination index (the address book's order), `0` for a miss (fall back
/// to the dynamic router), `port + 1`, or `LOCAL_HASH | i` for the table's
/// `i`-th hash descriptor. The sim interns it into [`FibTables`] and drops
/// it.
#[derive(Clone, Debug)]
pub struct CompiledFib {
    entries: Vec<u32>,
    descs: Vec<HashDesc>,
    groups: Vec<PortId>,
}

/// Tag bit of a [`CompiledFib`] hash entry.
const LOCAL_HASH: u32 = 1 << 31;

/// Incrementally builds a [`CompiledFib`] over `n` destinations.
#[derive(Debug)]
pub struct FibBuilder {
    entries: Vec<u32>,
    descs: Vec<HashDesc>,
    desc_ids: FxHashMap<HashDesc, u32>,
    groups: Vec<PortId>,
}

impl FibBuilder {
    /// All-miss table over `n` destination indices.
    pub fn new(n: usize) -> Self {
        FibBuilder {
            entries: vec![0; n],
            descs: Vec::new(),
            desc_ids: FxHashMap::default(),
            groups: Vec::new(),
        }
    }

    /// Fix destination `dst` to a single port.
    pub fn port(&mut self, dst: usize, p: PortId) {
        self.entries[dst] = u32::from(p.0) + 1;
    }

    /// Intern a port group in the pool; returns `(off, len)` for reuse
    /// across destinations sharing the group.
    pub fn group(&mut self, ports: &[PortId]) -> (u32, u16) {
        assert!(!ports.is_empty(), "empty ECMP group");
        assert!(ports.len() <= u16::MAX as usize, "ECMP group too large");
        let off = u32::try_from(self.groups.len()).expect("group pool overflow");
        self.groups.extend_from_slice(ports);
        (off, ports.len() as u16)
    }

    /// Hash destination `dst` over an interned group:
    /// `group[(mix64(flow ^ salt) >> shift) % len]`. The `salt`/`shift`
    /// parameters reproduce each dynamic router's exact hash input
    /// ([`EcmpRouter`](crate::routing::EcmpRouter) salts with the
    /// destination word; the fat-tree ECMP mode shifts for its second
    /// level).
    pub fn hashed(&mut self, dst: usize, (off, len): (u32, u16), shift: u8, salt: u64) {
        let d = HashDesc {
            off,
            len,
            shift,
            salt,
        };
        // Runs of destinations usually share the descriptor added last.
        let id = match self.descs.last() {
            Some(&last) if last == d => self.descs.len() as u32 - 1,
            _ => {
                let descs = &mut self.descs;
                *self.desc_ids.entry(d).or_insert_with(|| {
                    descs.push(d);
                    descs.len() as u32 - 1
                })
            }
        };
        assert!(id < LOCAL_HASH, "hash descriptor overflow");
        self.entries[dst] = LOCAL_HASH | id;
    }

    /// Finish the table.
    pub fn build(self) -> CompiledFib {
        CompiledFib {
            entries: self.entries,
            descs: self.descs,
            groups: self.groups,
        }
    }
}

/// /24 prefix → prefix id translation, built from the sorted address book.
/// Dense (one array load) when the bound prefixes span a reasonable range —
/// true for every in-tree topology — with a binary-search fallback so
/// pathological address plans stay correct. Prefix ids number the distinct
/// bound prefixes in address order.
#[derive(Clone, Debug)]
enum AddrIndex {
    /// `table[(addr >> 8) - base]` is the prefix id, or `u32::MAX` for a
    /// prefix with no bound address.
    Dense {
        /// Lowest bound prefix (big-endian address >> 8).
        base: u32,
        /// Prefix-id table covering `base..=max`.
        table: Vec<u32>,
    },
    /// Sorted bound prefixes; the prefix id is the binary-search position.
    Sparse {
        /// Sorted distinct prefixes (big-endian address >> 8).
        prefixes: Vec<u32>,
    },
}

/// Prefix spans beyond this fall back to [`AddrIndex::Sparse`]. The dense
/// table costs 4 bytes per /24 in the span: 1 796 slots (7 KiB) on a k = 8
/// fat tree, 3 848 on k = 16; the limit caps it at 256 KiB.
const DENSE_PREFIX_LIMIT: usize = 1 << 16;

impl AddrIndex {
    /// Build from sorted big-endian address keys (the address book's
    /// order).
    fn build(keys: &[u32]) -> Self {
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys must be sorted");
        let mut prefixes: Vec<u32> = Vec::new();
        for &k in keys {
            if prefixes.last() != Some(&(k >> 8)) {
                prefixes.push(k >> 8);
            }
        }
        match (prefixes.first(), prefixes.last()) {
            (Some(&lo), Some(&hi)) if ((hi - lo) as usize) < DENSE_PREFIX_LIMIT => {
                let mut table = vec![u32::MAX; (hi - lo) as usize + 1];
                for (i, &p) in prefixes.iter().enumerate() {
                    table[(p - lo) as usize] = i as u32;
                }
                AddrIndex::Dense { base: lo, table }
            }
            _ => AddrIndex::Sparse { prefixes },
        }
    }

    /// Prefix id of `addr`'s /24, or `None` if no address under it is
    /// bound.
    #[inline]
    fn lookup(&self, addr: Addr) -> Option<u32> {
        let prefix = u32::from_be_bytes(addr.0) >> 8;
        match self {
            AddrIndex::Dense { base, table } => {
                let i = prefix.checked_sub(*base)? as usize;
                match table.get(i) {
                    Some(&id) if id != u32::MAX => Some(id),
                    _ => None,
                }
            }
            AddrIndex::Sparse { prefixes } => {
                prefixes.binary_search(&prefix).ok().map(|i| i as u32)
            }
        }
    }

    /// Number of indexed prefixes.
    fn len(&self) -> usize {
        match self {
            AddrIndex::Dense { table, .. } => table.iter().filter(|&&i| i != u32::MAX).count(),
            AddrIndex::Sparse { prefixes } => prefixes.len(),
        }
    }
}

/// Entries per block: one per last octet.
const BLOCK: usize = 256;

/// 256 entries for the addresses under one /24, indexed by last octet.
/// `MISS`, `port + 1`, or `HASH_BIT | descriptor id`.
type Block = [u16; BLOCK];

/// Entry value for a miss or an unbound address.
const MISS: u16 = 0;
/// Tag bit of a hash-descriptor entry.
const HASH_BIT: u16 = 0x8000;
/// Highest port a `port + 1` entry can carry.
const MAX_PORT: u16 = HASH_BIT - 2;
/// Number of distinct hash descriptors the entry space can name, across
/// the whole pool (every compiled switch of one sim).
const MAX_DESCS: usize = HASH_BIT as usize;
/// `row_of` value of an uncompiled node.
const NO_ROW: u32 = u32::MAX;

/// An ECMP spread: `groups[off + (mix64(flow ^ salt) >> shift) %
/// len]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct HashDesc {
    off: u32,
    len: u16,
    shift: u8,
    salt: u64,
}

/// The compiled forwarding state of every switch in one sim: a prefix
/// index, one row of block ids per compiled switch, and the interned
/// blocks, hash descriptors and port groups those rows share.
#[derive(Debug)]
pub struct FibTables {
    index: AddrIndex,
    /// Prefix ids per row (the row stride).
    prefixes: usize,
    /// Per prefix id: one past the last address key under it.
    run_ends: Vec<u32>,
    /// Per node: offset of its row in `rows`, or `NO_ROW`.
    row_of: Vec<u32>,
    /// Rows of block ids, `prefixes` per row.
    rows: Vec<u32>,
    blocks: Vec<Block>,
    block_ids: FxHashMap<Block, u32>,
    descs: Vec<HashDesc>,
    desc_ids: FxHashMap<HashDesc, u16>,
    groups: Vec<PortId>,
    group_ids: FxHashMap<Vec<PortId>, u32>,
}

impl FibTables {
    /// Empty tables (every node uncompiled) over the sorted big-endian
    /// address keys `keys`, with room for `nodes` nodes of which about
    /// `switches` will be compiled.
    pub(crate) fn new(keys: &[u32], nodes: usize, switches: usize) -> Self {
        let index = AddrIndex::build(keys);
        let prefixes = index.len();
        let run_ends = (1..=keys.len())
            .filter(|&i| i == keys.len() || keys[i] >> 8 != keys[i - 1] >> 8)
            .map(|i| i as u32)
            .collect();
        FibTables {
            index,
            prefixes,
            run_ends,
            row_of: vec![NO_ROW; nodes],
            rows: Vec::with_capacity(prefixes * switches),
            blocks: Vec::new(),
            block_ids: FxHashMap::default(),
            descs: Vec::new(),
            desc_ids: FxHashMap::default(),
            groups: Vec::new(),
            group_ids: FxHashMap::default(),
        }
    }

    /// The output port for a packet to `dst` of `flow` at `node`, or `None`
    /// when it must take the dynamic fallback (uncompiled node, unbound
    /// address, or a miss entry).
    #[inline]
    pub fn lookup(&self, node: NodeId, dst: Addr, flow: FlowId) -> Option<PortId> {
        let block = self.block_of(node, dst)?;
        let e = self.blocks[block as usize][usize::from(dst.host())];
        if e & HASH_BIT == 0 {
            return e.checked_sub(1).map(PortId);
        }
        let d = &self.descs[usize::from(e & !HASH_BIT)];
        let h = mix64(flow.0 ^ d.salt) >> d.shift;
        Some(self.groups[d.off as usize + (h % u64::from(d.len)) as usize])
    }

    /// Id of the block `node` reads for `dst`'s /24, or `None` when the
    /// node is uncompiled or the prefix unbound. Switches sharing a block
    /// id share its storage.
    #[inline]
    pub fn block_of(&self, node: NodeId, dst: Addr) -> Option<u32> {
        let row = *self.row_of.get(node.0 as usize)?;
        if row == NO_ROW {
            return None;
        }
        let pid = self.index.lookup(dst)?;
        Some(self.rows[row as usize + pid as usize])
    }

    /// Distinct blocks interned so far.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Intern `fib` (compiled over the address keys `keys`, the order
    /// [`FibTables::new`] was given) as `node`'s row, replacing any row it
    /// had. `None` — or a table that does not fit the entry space — leaves
    /// the node uncompiled. Returns whether the node is compiled.
    pub(crate) fn install(
        &mut self,
        node: NodeId,
        keys: &[u32],
        fib: Option<&CompiledFib>,
    ) -> bool {
        let n = node.0 as usize;
        if n >= self.row_of.len() {
            self.row_of.resize(n + 1, NO_ROW);
        }
        let old = self.row_of[n];
        self.row_of[n] = match fib.and_then(|f| self.intern_row(keys, f)) {
            None => NO_ROW,
            Some(row) if old != NO_ROW => {
                self.rows[old as usize..old as usize + self.prefixes].copy_from_slice(&row);
                old
            }
            Some(row) => match u32::try_from(self.rows.len()) {
                Ok(off) if off != NO_ROW => {
                    self.rows.extend_from_slice(&row);
                    off
                }
                _ => NO_ROW,
            },
        };
        self.row_of[n] != NO_ROW
    }

    /// The block ids of `fib`'s row, or `None` when an entry does not fit
    /// (a port above `MAX_PORT`, or a descriptor the pool has no id left
    /// for: `MAX_DESCS` counts every switch interned so far). A table that
    /// does not fit interns nothing.
    fn intern_row(&mut self, keys: &[u32], fib: &CompiledFib) -> Option<Vec<u32>> {
        assert_eq!(
            keys.len(),
            fib.entries.len(),
            "table compiled over other keys"
        );
        let marks = (self.blocks.len(), self.descs.len(), self.groups.len());
        let row = self.try_intern_row(keys, fib);
        if row.is_none() {
            let (blocks, descs, groups) = marks;
            for b in self.blocks.drain(blocks..) {
                self.block_ids.remove(&b);
            }
            for d in self.descs.drain(descs..) {
                self.desc_ids.remove(&d);
            }
            self.group_ids.retain(|_, off| (*off as usize) < groups);
            self.groups.truncate(groups);
        }
        row
    }

    fn try_intern_row(&mut self, keys: &[u32], fib: &CompiledFib) -> Option<Vec<u32>> {
        // The table's descriptors renumbered into the pool, as block
        // entries.
        let mut xlat: Vec<u16> = Vec::with_capacity(fib.descs.len());
        for d in &fib.descs {
            let off =
                self.intern_group(&fib.groups[d.off as usize..d.off as usize + d.len as usize]);
            xlat.push(HASH_BIT | self.intern_desc(HashDesc { off, ..*d })?);
        }
        let mut row: Vec<u32> = Vec::with_capacity(self.prefixes);
        let mut start = 0;
        for pid in 0..self.prefixes {
            let end = self.run_ends[pid] as usize;
            let mut block: Block = [MISS; BLOCK];
            for (&key, &e) in keys[start..end].iter().zip(&fib.entries[start..end]) {
                block[(key & 0xFF) as usize] = if e <= u32::from(MAX_PORT) + 1 {
                    e as u16
                } else if e & LOCAL_HASH != 0 {
                    xlat[(e & !LOCAL_HASH) as usize]
                } else {
                    return None; // a port above `MAX_PORT`
                };
            }
            start = end;
            row.push(self.intern_block(&block));
        }
        Some(row)
    }

    fn intern_block(&mut self, block: &Block) -> u32 {
        if let Some(&id) = self.block_ids.get(block) {
            return id;
        }
        let id = u32::try_from(self.blocks.len()).expect("block pool overflow");
        self.blocks.push(*block);
        self.block_ids.insert(*block, id);
        id
    }

    fn intern_desc(&mut self, d: HashDesc) -> Option<u16> {
        if let Some(&id) = self.desc_ids.get(&d) {
            return Some(id);
        }
        if self.descs.len() >= MAX_DESCS {
            return None;
        }
        let id = self.descs.len() as u16;
        self.descs.push(d);
        self.desc_ids.insert(d, id);
        Some(id)
    }

    fn intern_group(&mut self, ports: &[PortId]) -> u32 {
        if let Some(&off) = self.group_ids.get(ports) {
            return off;
        }
        let off = u32::try_from(self.groups.len()).expect("group pool overflow");
        self.groups.extend_from_slice(ports);
        self.group_ids.insert(ports.to_vec(), off);
        off
    }

    /// Whether entry `e` can forward out of `port`.
    fn chooses(&self, e: u16, port: PortId) -> bool {
        if e & HASH_BIT == 0 {
            return e == port.0.wrapping_add(1) && e != MISS;
        }
        let d = &self.descs[usize::from(e & !HASH_BIT)];
        self.groups[d.off as usize..d.off as usize + d.len as usize].contains(&port)
    }

    /// Demote every entry of `node`'s row that can choose `port` to a miss,
    /// so affected destinations take the dynamic fallback. Called when the
    /// link behind `port` fails: the compiled table must stop steering
    /// traffic at a dead port without a full (and failure-oblivious)
    /// recompile. Shared blocks are never written: each affected block is
    /// copied, demoted and interned, and only this node's row moves to the
    /// copy.
    pub(crate) fn demote_port(&mut self, node: NodeId, port: PortId) {
        let Some(&row) = self.row_of.get(node.0 as usize) else {
            return;
        };
        if row == NO_ROW {
            return;
        }
        // Rows repeat a handful of blocks; demote each one once.
        let mut done: Vec<(u32, u32)> = Vec::new();
        for i in row as usize..row as usize + self.prefixes {
            let old = self.rows[i];
            let new = match done.iter().find(|&&(o, _)| o == old) {
                Some(&(_, new)) => new,
                None => {
                    let mut copy = self.blocks[old as usize];
                    let mut hit = false;
                    for e in &mut copy {
                        if self.chooses(*e, port) {
                            *e = MISS;
                            hit = true;
                        }
                    }
                    let new = if hit { self.intern_block(&copy) } else { old };
                    done.push((old, new));
                    new
                }
            };
            self.rows[i] = new;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys_of(addrs: &[Addr]) -> Vec<u32> {
        addrs.iter().map(|a| u32::from_be_bytes(a.0)).collect()
    }

    #[test]
    fn addr_index_dense_round_trips() {
        let keys = keys_of(&[
            Addr::new(10, 0, 0, 2),
            Addr::new(10, 0, 0, 5),
            Addr::new(10, 1, 0, 2),
        ]);
        let idx = AddrIndex::build(&keys);
        assert!(matches!(idx, AddrIndex::Dense { .. }));
        assert_eq!(idx.lookup(Addr::new(10, 0, 0, 2)), Some(0));
        assert_eq!(idx.lookup(Addr::new(10, 0, 0, 5)), Some(0));
        assert_eq!(idx.lookup(Addr::new(10, 1, 0, 2)), Some(1));
        // Unbound addresses under a bound /24 share its prefix id.
        assert_eq!(idx.lookup(Addr::new(10, 0, 0, 3)), Some(0));
        assert_eq!(idx.lookup(Addr::new(10, 0, 1, 2)), None);
        assert_eq!(idx.lookup(Addr::new(9, 0, 0, 2)), None);
        assert_eq!(idx.lookup(Addr::new(10, 1, 1, 0)), None);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn addr_index_sparse_fallback() {
        let keys = vec![0u32, u32::MAX - 1];
        let idx = AddrIndex::build(&keys);
        assert!(matches!(idx, AddrIndex::Sparse { .. }));
        assert_eq!(idx.lookup(Addr(0u32.to_be_bytes())), Some(0));
        assert_eq!(idx.lookup(Addr((u32::MAX - 1).to_be_bytes())), Some(1));
        assert_eq!(idx.lookup(Addr(7u32.to_be_bytes())), Some(0));
        assert_eq!(idx.lookup(Addr(0x100u32.to_be_bytes())), None);
    }

    /// Three destinations: two under one /24, one under another.
    fn three() -> (Vec<Addr>, Vec<u32>) {
        let dsts = vec![
            Addr::new(10, 0, 0, 2),
            Addr::new(10, 0, 0, 3),
            Addr::new(10, 0, 1, 2),
        ];
        let keys = keys_of(&dsts);
        (dsts, keys)
    }

    #[test]
    fn port_hash_and_miss_entries() {
        let (dsts, keys) = three();
        let mut b = FibBuilder::new(3);
        b.port(0, PortId(4));
        let g = b.group(&[PortId(1), PortId(2), PortId(3)]);
        b.hashed(1, g, 0, 0xABCD);
        let mut t = FibTables::new(&keys, 1, 1);
        assert!(t.install(NodeId(0), &keys, Some(&b.build())));
        assert_eq!(t.lookup(NodeId(0), dsts[0], FlowId(9)), Some(PortId(4)));
        // Hash entry reproduces the dynamic formula exactly.
        let h = mix64(9 ^ 0xABCD);
        let expect = [PortId(1), PortId(2), PortId(3)][(h % 3) as usize];
        assert_eq!(t.lookup(NodeId(0), dsts[1], FlowId(9)), Some(expect));
        // Miss, unbound address, unknown prefix and unknown node fall through.
        assert_eq!(t.lookup(NodeId(0), dsts[2], FlowId(9)), None);
        assert_eq!(t.lookup(NodeId(0), Addr::new(10, 0, 0, 9), FlowId(9)), None);
        assert_eq!(t.lookup(NodeId(0), Addr::new(10, 9, 0, 2), FlowId(9)), None);
        assert_eq!(t.lookup(NodeId(1), dsts[0], FlowId(9)), None);
    }

    #[test]
    fn descriptors_sharing_an_offset_keep_their_own_length() {
        let (dsts, keys) = three();
        let mut b = FibBuilder::new(3);
        let (off, len) = b.group(&[PortId(1), PortId(2), PortId(3)]);
        // The shorter range first: its pool group must not serve the longer.
        b.hashed(0, (off, len - 1), 0, 0);
        b.hashed(1, (off, len), 0, 0);
        let mut t = FibTables::new(&keys, 1, 1);
        assert!(t.install(NodeId(0), &keys, Some(&b.build())));
        for flow in 0..16u64 {
            let h = mix64(flow);
            let all = [PortId(1), PortId(2), PortId(3)];
            assert_eq!(
                t.lookup(NodeId(0), dsts[0], FlowId(flow)),
                Some(all[(h % 2) as usize])
            );
            assert_eq!(
                t.lookup(NodeId(0), dsts[1], FlowId(flow)),
                Some(all[(h % 3) as usize])
            );
        }
    }

    #[test]
    fn identical_rows_share_blocks() {
        let (dsts, keys) = three();
        let fib = |p: u16| {
            let mut b = FibBuilder::new(3);
            for i in 0..3 {
                b.port(i, PortId(p));
            }
            b.build()
        };
        let mut t = FibTables::new(&keys, 3, 3);
        t.install(NodeId(0), &keys, Some(&fib(1)));
        t.install(NodeId(1), &keys, Some(&fib(1)));
        t.install(NodeId(2), &keys, Some(&fib(2)));
        // Two distinct block contents per port value (/24 with two bound
        // hosts, /24 with one); nodes 0 and 1 share theirs.
        assert_eq!(t.block_count(), 4);
        for &d in &dsts {
            assert_eq!(t.block_of(NodeId(0), d), t.block_of(NodeId(1), d));
            assert_ne!(t.block_of(NodeId(0), d), t.block_of(NodeId(2), d));
        }
    }

    #[test]
    fn demote_port_copies_shared_blocks() {
        let dsts = [
            Addr::new(10, 0, 0, 2),
            Addr::new(10, 0, 0, 3),
            Addr::new(10, 0, 1, 2),
            Addr::new(10, 0, 1, 3),
        ];
        let keys = keys_of(&dsts);
        let mut b = FibBuilder::new(4);
        b.port(0, PortId(4));
        b.port(1, PortId(5));
        let g = b.group(&[PortId(1), PortId(4)]);
        b.hashed(2, g, 0, 0);
        let g2 = b.group(&[PortId(2), PortId(3)]);
        b.hashed(3, g2, 0, 0);
        let fib = b.build();
        let mut t = FibTables::new(&keys, 2, 2);
        t.install(NodeId(0), &keys, Some(&fib));
        t.install(NodeId(1), &keys, Some(&fib));
        t.demote_port(NodeId(0), PortId(4));
        // Direct port hit and the group containing it both miss now; the
        // untouched entries keep forwarding, the hash over a group without
        // the dead port by the same formula as before.
        assert_eq!(t.lookup(NodeId(0), dsts[0], FlowId(0)), None);
        assert_eq!(t.lookup(NodeId(0), dsts[1], FlowId(0)), Some(PortId(5)));
        assert_eq!(t.lookup(NodeId(0), dsts[2], FlowId(0)), None);
        for flow in 0..16u64 {
            let expect = [PortId(2), PortId(3)][(mix64(flow) % 2) as usize];
            assert_eq!(t.lookup(NodeId(0), dsts[3], FlowId(flow)), Some(expect));
        }
        // The node sharing the original blocks is untouched.
        assert_eq!(t.lookup(NodeId(1), dsts[0], FlowId(0)), Some(PortId(4)));
        assert!(t.lookup(NodeId(1), dsts[2], FlowId(0)).is_some());
        // Reinstalling the original table re-shares the original blocks.
        t.install(NodeId(0), &keys, Some(&fib));
        for &d in &dsts {
            assert_eq!(t.block_of(NodeId(0), d), t.block_of(NodeId(1), d));
        }
    }

    #[test]
    fn overflowing_entry_space_leaves_the_switch_uncompiled() {
        let (dsts, keys) = three();
        // A port past the entry space.
        let mut b = FibBuilder::new(3);
        b.port(0, PortId(1));
        b.port(1, PortId(MAX_PORT + 1));
        let mut t = FibTables::new(&keys, 1, 1);
        assert!(!t.install(NodeId(0), &keys, Some(&b.build())));
        assert_eq!(t.lookup(NodeId(0), dsts[0], FlowId(0)), None);
        let mut b = FibBuilder::new(3);
        b.port(0, PortId(MAX_PORT));
        assert!(t.install(NodeId(0), &keys, Some(&b.build())));
        assert_eq!(
            t.lookup(NodeId(0), dsts[0], FlowId(0)),
            Some(PortId(MAX_PORT))
        );

        // More distinct descriptors than the entry space can name: one salt
        // per destination over 40 000 destinations.
        let n = 40_000u32;
        let keys: Vec<u32> = (0..n).map(|i| 0x0A00_0000 + i).collect();
        let mut b = FibBuilder::new(n as usize);
        let g = b.group(&[PortId(0), PortId(1)]);
        for i in 0..n as usize {
            b.hashed(i, g, 0, i as u64);
        }
        let fib = b.build();
        let mut t = FibTables::new(&keys, 2, 2);
        assert!(!t.install(NodeId(0), &keys, Some(&fib)));
        let last = Addr((0x0A00_0000 + n - 1).to_be_bytes());
        assert_eq!(t.lookup(NodeId(0), last, FlowId(3)), None);
        // The failed table interned nothing that stays behind.
        assert_eq!((t.block_count(), t.descs.len(), t.groups.len()), (0, 0, 0));
        // A table within the space still compiles alongside.
        let mut b = FibBuilder::new(n as usize);
        b.port(0, PortId(7));
        assert!(t.install(NodeId(1), &keys, Some(&b.build())));
        assert_eq!(
            t.lookup(NodeId(1), Addr(0x0A00_0000u32.to_be_bytes()), FlowId(0)),
            Some(PortId(7))
        );
    }
}
