//! Crash-safe file persistence: atomic writes and a generational,
//! checksummed snapshot store.
//!
//! Two layers share one private write path (tmp file, optional fsync,
//! rename, optional directory fsync):
//!
//! * [`atomic_write`] — the tmp-write + fsync + rename idiom every
//!   durable writer in the workspace shares (model stores, results
//!   documents). A reader never observes a torn file: it sees either
//!   the old bytes or the new bytes. It always syncs.
//! * [`SnapshotStore`] — a directory of numbered snapshot generations
//!   (`gen-000042.icmsnap`), each framed with a header carrying a
//!   format version, a [`checksum64`] (XXH64) of the payload, and the
//!   payload length. Loading walks generations newest-first and falls
//!   back to the previous good generation when the newest is torn or
//!   corrupt, so a crash mid-checkpoint (or a flipped bit on disk)
//!   costs at most one checkpoint interval — never the whole run. That
//!   one walk ([`SnapshotStore::load_newest`]) also takes the caller's
//!   payload check, so a generation whose payload is refused (say, an
//!   unknown format version) is skipped the same way. The store trusts
//!   its own writes: it lists the directory once at open, numbers new
//!   generations from what it has seen, and never re-reads a generation
//!   it wrote itself. Whether it fsyncs is the caller's choice
//!   ([`SnapshotStore::open_with_sync`]); the default is to sync.
//!
//! The framing is deliberately independent of the payload format: the
//! store checksums opaque bytes, and callers layer their own versioned
//! JSON payload (e.g. `icm-manager`'s `WorldSnapshot`) on top.
//!
//! [`checksum64`] is the one integrity checksum of the durable formats
//! (the server's line logs use it too). It hashes a word at a time, so
//! verifying a megabyte-sized snapshot costs a fraction of writing it.
//! [`fnv1a64`] stays only as the digest the golden tests and the
//! flamegraph palette print.

use std::cell::Cell;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Writes `bytes` to `path` atomically: write a sibling temp file,
/// fsync it, then rename over the destination.
///
/// On POSIX filesystems the rename is atomic, so a concurrent reader
/// (or a reader after a crash) sees either the complete old contents or
/// the complete new contents, never a prefix. The containing directory
/// is fsynced best-effort afterwards so the rename itself is durable.
///
/// The temp file lives next to the destination (same directory, suffix
/// `.tmp`) so the rename cannot cross a filesystem boundary. A symlink
/// `path` is written through to the file it resolves to.
///
/// # Errors
///
/// Refuses what [`write_target`] refuses.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    write_atomically(&write_target(path)?, &[bytes], true)
}

/// The file [`atomic_write`] replaces for `path`: `path`, or the file a
/// symlink `path` resolves to, so the link survives the rename.
///
/// # Errors
///
/// Refuses, naming the path, a dangling symlink (`NotFound`) and a
/// target that exists but is not a regular file (`InvalidInput`).
pub fn write_target(path: &Path) -> io::Result<PathBuf> {
    let target = match fs::symlink_metadata(path) {
        Ok(meta) if meta.file_type().is_symlink() => fs::canonicalize(path).map_err(|e| {
            let message = format!("symlink {} does not resolve: {e}", path.display());
            io::Error::new(e.kind(), message)
        })?,
        _ => path.to_path_buf(),
    };
    if fs::metadata(&target).is_ok_and(|meta| !meta.is_file()) {
        let message = format!("{} is not a regular file", target.display());
        return Err(io::Error::new(io::ErrorKind::InvalidInput, message));
    }
    Ok(target)
}

/// The one durable write path: `parts`, concatenated, go to a sibling
/// temp file that is renamed over `path`. With `sync`, the file is
/// fsynced before the rename and the directory (best-effort) after it;
/// without, the rename is still atomic but may not survive power loss.
fn write_atomically(path: &Path, parts: &[&[u8]], sync: bool) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let tmp: PathBuf = {
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(".tmp");
        match dir {
            Some(d) => d.join(name),
            None => PathBuf::from(name),
        }
    };
    let mut file = File::create(&tmp)?;
    for part in parts {
        file.write_all(part)?;
    }
    if sync {
        file.sync_all()?;
    }
    drop(file);
    fs::rename(&tmp, path)?;
    // Durability of the rename needs a directory fsync; not all
    // platforms allow opening a directory for sync, so best-effort.
    if let (true, Some(d)) = (sync, dir) {
        if let Ok(dirf) = File::open(d) {
            let _ = dirf.sync_all();
        }
    }
    Ok(())
}

/// FNV-1a 64-bit digest of `bytes`.
///
/// A fingerprint, not a durability check: the golden tests print it
/// over whole documents and the flamegraph picks a span's colour from
/// it, so its values must never move. It is byte-serial, so nothing
/// durable is framed with it; [`checksum64`] guards the bytes on disk.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

// The five 64-bit primes of the XXH64 specification.
const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

fn xxh_round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn xxh_merge(hash: u64, lane: u64) -> u64 {
    (hash ^ xxh_round(0, lane))
        .wrapping_mul(P1)
        .wrapping_add(P4)
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte chunk"))
}

/// XXH64 (seed 0) of `bytes`: the integrity checksum of every durable
/// framing in the workspace — snapshot generations and the server's
/// line logs.
///
/// Not cryptographic — it guards against torn writes and bit rot, not
/// adversaries. It consumes 32 bytes per step in four independent
/// lanes, so it runs at memory speed where a byte-serial hash such as
/// [`fnv1a64`] is bound by one multiply per byte.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut hash = if bytes.len() >= 32 {
        let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in &mut stripes {
            for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = xxh_round(*lane, le_u64(word));
            }
        }
        let [a, b, c, d] = lanes;
        let hash = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        lanes.into_iter().fold(hash, xxh_merge)
    } else {
        P5
    };
    hash = hash.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        hash = (hash ^ xxh_round(0, le_u64(word)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut halves = words.remainder().chunks_exact(4);
    for half in &mut halves {
        let word = u32::from_le_bytes(half.try_into().expect("a 4-byte chunk"));
        hash = (hash ^ u64::from(word).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
    }
    for &byte in halves.remainder() {
        hash = (hash ^ u64::from(byte).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(P2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(P3);
    hash ^ (hash >> 32)
}

/// Store framing version (the header's `v2`). Independent of any
/// payload version the caller embeds. Version 1 framed generations
/// with [`fnv1a64`]; version 2 frames them with [`checksum64`], and a
/// version 1 generation is refused as [`LoadError::UnknownVersion`].
pub const STORE_VERSION: u64 = 2;

const SNAP_EXT: &str = "icmsnap";
const HEADER_MAGIC: &str = "icmsnap";

/// Why a single snapshot generation failed to load.
///
/// [`SnapshotStore::load_newest`] treats every variant as "this
/// generation is unusable, try the previous one".
#[derive(Debug, Clone, PartialEq)]
pub enum LoadError {
    /// The file could not be read at all.
    Io(String),
    /// The first line is not a valid `icmsnap` header.
    BadHeader(String),
    /// The store framing version is not the one this build writes:
    /// newer than it understands, or an older framing it no longer
    /// reads.
    UnknownVersion(u64),
    /// The payload is shorter or longer than the header promised
    /// (classic torn write).
    LengthMismatch {
        /// Byte count the header promised.
        expected: usize,
        /// Byte count actually present.
        got: usize,
    },
    /// The payload bytes do not hash to the header's checksum.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes on disk.
        got: u64,
    },
    /// The framing verified, but the caller's payload check refused the
    /// payload.
    Payload(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "snapshot io error: {e}"),
            LoadError::BadHeader(e) => write!(f, "bad snapshot header: {e}"),
            LoadError::UnknownVersion(v) => {
                write!(f, "unknown snapshot store version {v}")
            }
            LoadError::LengthMismatch { expected, got } => write!(
                f,
                "torn snapshot: header promised {expected} payload bytes, found {got}"
            ),
            LoadError::ChecksumMismatch { expected, got } => write!(
                f,
                "corrupt snapshot: checksum {got:016x} != recorded {expected:016x}"
            ),
            LoadError::Payload(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Why [`SnapshotStore::load_newest`] could not produce any payload.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// The store directory could not be read.
    Io(String),
    /// Generations exist but every single one failed to load. Carries
    /// the per-generation failures, newest first.
    NoneValid(Vec<(u64, LoadError)>),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "snapshot store io error: {e}"),
            StoreError::NoneValid(tried) => {
                write!(f, "no valid snapshot generation (tried {}):", tried.len())?;
                for (generation, err) in tried {
                    write!(f, " generation {generation}: {err};")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// A directory of numbered, checksummed snapshot generations.
///
/// Writes are atomic (the same write path as [`atomic_write`]); reads
/// verify the checksum and fall back to older generations on damage.
/// Generation numbers only grow, so "latest" is simply the highest
/// number present.
///
/// The store trusts its own writes. It lists the directory at
/// [`SnapshotStore::open`] and then tracks the newest generation number
/// it has seen and the generation it last wrote: [`SnapshotStore::save`]
/// numbers without listing, and [`SnapshotStore::prune`] keeps that
/// last write as the newest loadable generation without reading it
/// back. A generation it did not write — one from an earlier life, or
/// from another writer — is never trusted unread, and never replaced.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    dir: PathBuf,
    sync: bool,
    /// Highest generation number seen on disk or written.
    newest: Cell<u64>,
    /// The generation this store wrote last.
    written: Cell<Option<u64>>,
}

impl SnapshotStore {
    /// Opens (creating if needed) a snapshot store rooted at `dir`
    /// whose writes fsync the file and the directory.
    pub fn open(dir: &Path) -> io::Result<SnapshotStore> {
        Self::open_with_sync(dir, true)
    }

    /// Opens (creating if needed) a snapshot store rooted at `dir`,
    /// listing it once. `sync` chooses whether each generation is
    /// fsynced (file, then directory) before [`SnapshotStore::save`]
    /// returns; either way it appears atomically under its name.
    pub fn open_with_sync(dir: &Path, sync: bool) -> io::Result<SnapshotStore> {
        fs::create_dir_all(dir)?;
        let store = SnapshotStore {
            dir: dir.to_path_buf(),
            sync,
            newest: Cell::new(0),
            written: Cell::new(None),
        };
        store.generations()?;
        Ok(store)
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, generation: u64) -> PathBuf {
        self.dir.join(format!("gen-{generation:06}.{SNAP_EXT}"))
    }

    /// Generation numbers currently on disk, ascending. Always reads
    /// the directory, so it sees other writers' generations too.
    pub fn generations(&self) -> io::Result<Vec<u64>> {
        let mut generations = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name
                .strip_prefix("gen-")
                .and_then(|rest| rest.strip_suffix(&format!(".{SNAP_EXT}")))
            else {
                continue;
            };
            if let Ok(generation) = stem.parse::<u64>() {
                generations.push(generation);
            }
        }
        generations.sort_unstable();
        if let Some(&last) = generations.last() {
            self.newest.set(self.newest.get().max(last));
        }
        Ok(generations)
    }

    /// Persists `payload` as a new generation and returns its number.
    ///
    /// The number follows the newest this store has seen. If that file
    /// exists already (another writer got there first), the directory
    /// is listed again and the number goes above its newest: a
    /// generation this store did not write is never replaced.
    pub fn save(&self, payload: &[u8]) -> io::Result<u64> {
        let mut generation = self.newest.get() + 1;
        if self.path_of(generation).try_exists()? {
            self.generations()?;
            generation = self.newest.get() + 1;
        }
        let header = format!(
            "{HEADER_MAGIC} v{STORE_VERSION} {checksum:016x} {len}\n",
            checksum = checksum64(payload),
            len = payload.len()
        );
        let path = self.path_of(generation);
        write_atomically(&path, &[header.as_bytes(), payload], self.sync)?;
        self.newest.set(generation);
        self.written.set(Some(generation));
        Ok(generation)
    }

    /// Loads one specific generation, verifying framing and checksum.
    pub fn load(&self, generation: u64) -> Result<Vec<u8>, LoadError> {
        let mut bytes = Vec::new();
        File::open(self.path_of(generation))
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| LoadError::Io(e.to_string()))?;
        let newline = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| LoadError::BadHeader("missing header line".into()))?;
        let header = std::str::from_utf8(&bytes[..newline])
            .map_err(|_| LoadError::BadHeader("header is not utf-8".into()))?;
        let fields: Vec<&str> = header.split(' ').collect();
        if fields.len() != 4 || fields[0] != HEADER_MAGIC {
            return Err(LoadError::BadHeader(format!("malformed header {header:?}")));
        }
        let version: u64 = fields[1]
            .strip_prefix('v')
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| LoadError::BadHeader(format!("bad version field {:?}", fields[1])))?;
        if version != STORE_VERSION {
            return Err(LoadError::UnknownVersion(version));
        }
        let expected_checksum = u64::from_str_radix(fields[2], 16)
            .map_err(|_| LoadError::BadHeader(format!("bad checksum field {:?}", fields[2])))?;
        let expected_len: usize = fields[3]
            .parse()
            .map_err(|_| LoadError::BadHeader(format!("bad length field {:?}", fields[3])))?;
        let payload = &bytes[newline + 1..];
        if payload.len() != expected_len {
            return Err(LoadError::LengthMismatch {
                expected: expected_len,
                got: payload.len(),
            });
        }
        let got_checksum = checksum64(payload);
        if got_checksum != expected_checksum {
            return Err(LoadError::ChecksumMismatch {
                expected: expected_checksum,
                got: got_checksum,
            });
        }
        bytes.drain(..=newline);
        Ok(bytes)
    }

    /// Deletes old generations, keeping the newest `keep_last` plus —
    /// always — the newest generation that actually loads.
    ///
    /// Periodic checkpointing would otherwise grow the store without
    /// bound. The extra guarantee matters when the newest files are torn
    /// or corrupt: a prune that only counted filenames could delete the
    /// one generation an integrity-only [`SnapshotStore::load_newest`]
    /// would have fallen back to. When the newest generation on disk is
    /// the one this store wrote last, it is taken as the newest loadable
    /// one without being read; otherwise that walk finds it. Unparseable (non-`gen-*`) files
    /// are never touched.
    ///
    /// Returns the generation numbers removed, ascending. A
    /// `keep_last` of zero behaves like one: the store never prunes
    /// itself empty while a loadable generation exists.
    pub fn prune(&self, keep_last: usize) -> io::Result<Vec<u64>> {
        let generations = self.generations()?;
        let keep_last = keep_last.max(1);
        if generations.len() <= keep_last {
            return Ok(Vec::new());
        }
        let newest = generations.last().copied();
        let newest_loadable = if newest == self.written.get() {
            newest
        } else {
            self.load_newest(Ok)
                .ok()
                .flatten()
                .map(|(generation, _)| generation)
        };
        let cutoff = generations[generations.len() - keep_last];
        let mut removed = Vec::new();
        for &generation in &generations {
            if generation >= cutoff || Some(generation) == newest_loadable {
                continue;
            }
            fs::remove_file(self.path_of(generation))?;
            removed.push(generation);
        }
        Ok(removed)
    }

    /// Loads the newest generation that verifies, falling back through
    /// older ones when the newest is torn or corrupt: the integrity-only
    /// case of [`SnapshotStore::load_newest`].
    pub fn load_latest(&self) -> Result<Option<(u64, Vec<u8>)>, StoreError> {
        self.load_newest(Ok)
    }

    /// Walks generations newest-first and returns the first one whose
    /// framing verifies *and* whose payload `check` accepts, decoded.
    /// A generation that fails either test — torn, corrupt, or refused
    /// by `check` — is skipped in favor of the previous one.
    ///
    /// Returns `Ok(None)` for an empty store, and `Err(NoneValid)` —
    /// with every per-generation failure, newest first — only when
    /// generations exist but none is usable.
    pub fn load_newest<T>(
        &self,
        check: impl FnMut(Vec<u8>) -> Result<T, String>,
    ) -> Result<Option<(u64, T)>, StoreError> {
        self.load_newest_noting(check, |_, _| {})
    }

    /// [`SnapshotStore::load_newest`], also handing `skipped` each
    /// generation it passes over, newest first, with the reason, as it
    /// goes: so a caller can say why the generation it got is not the
    /// newest one.
    pub fn load_newest_noting<T>(
        &self,
        mut check: impl FnMut(Vec<u8>) -> Result<T, String>,
        mut skipped: impl FnMut(u64, &LoadError),
    ) -> Result<Option<(u64, T)>, StoreError> {
        let generations = self
            .generations()
            .map_err(|e| StoreError::Io(e.to_string()))?;
        let mut failures = Vec::new();
        for &generation in generations.iter().rev() {
            match self
                .load(generation)
                .and_then(|payload| check(payload).map_err(LoadError::Payload))
            {
                Ok(value) => return Ok(Some((generation, value))),
                Err(err) => {
                    skipped(generation, &err);
                    failures.push((generation, err));
                }
            }
        }
        if failures.is_empty() {
            Ok(None)
        } else {
            Err(StoreError::NoneValid(failures))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("icm-json-fs-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_replaces_contents() {
        let dir = tmpdir("aw");
        let path = dir.join("doc.json");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second, longer");
        assert!(
            !dir.join("doc.json.tmp").exists(),
            "temp file must not linger after rename"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn atomic_write_refuses_to_replace_a_socket() {
        use std::os::unix::fs::FileTypeExt;
        let dir = tmpdir("aw-socket");
        let path = dir.join("listener.sock");
        let _listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
        let err = atomic_write(&path, b"bytes").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("listener.sock"), "{err}");
        assert!(fs::metadata(&path).unwrap().file_type().is_socket());
        assert!(!dir.join("listener.sock.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn atomic_write_writes_through_a_symlink() {
        let dir = tmpdir("aw-link");
        let real = dir.join("real.json");
        let link = dir.join("link.json");
        fs::write(&real, b"old").unwrap();
        std::os::unix::fs::symlink("real.json", &link).unwrap();
        atomic_write(&link, b"new bytes").unwrap();
        assert!(fs::symlink_metadata(&link)
            .unwrap()
            .file_type()
            .is_symlink());
        assert_eq!(fs::read(&real).unwrap(), b"new bytes");
        assert!(!dir.join("real.json.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn atomic_write_refuses_a_dangling_symlink() {
        let dir = tmpdir("aw-dangling");
        let link = dir.join("link.json");
        std::os::unix::fs::symlink("missing/real.json", &link).unwrap();
        let err = atomic_write(&link, b"bytes").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(err.to_string().contains("link.json"), "{err}");
        assert!(fs::symlink_metadata(&link)
            .unwrap()
            .file_type()
            .is_symlink());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn checksum64_matches_published_xxh64_vectors() {
        // Published XXH64 values, seed 0.
        assert_eq!(checksum64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(checksum64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(checksum64(b"abc"), 0x44bc_2cf5_ad77_0999);
        assert_eq!(
            checksum64(b"Nobody inspects the spammish repetition"),
            0xfbce_a83c_8a37_8bf1
        );
    }

    #[test]
    fn save_load_round_trips_and_generations_grow() {
        let dir = tmpdir("gen");
        let store = SnapshotStore::open(&dir).unwrap();
        assert_eq!(store.load_newest(Ok).unwrap(), None);
        assert_eq!(store.save(b"one").unwrap(), 1);
        assert_eq!(store.save(b"two").unwrap(), 2);
        assert_eq!(store.generations().unwrap(), vec![1, 2]);
        assert_eq!(store.load(1).unwrap(), b"one");
        let (generation, payload) = store.load_newest(Ok).unwrap().unwrap();
        assert_eq!((generation, payload.as_slice()), (2, b"two".as_slice()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_newest_falls_back_to_previous_generation() {
        let dir = tmpdir("torn");
        let store = SnapshotStore::open(&dir).unwrap();
        store.save(b"good payload").unwrap();
        store.save(b"newer payload").unwrap();
        // Simulate a torn write: chop the newest file mid-payload.
        let newest = dir.join("gen-000002.icmsnap");
        let full = fs::read(&newest).unwrap();
        fs::write(&newest, &full[..full.len() - 4]).unwrap();
        assert!(matches!(
            store.load(2),
            Err(LoadError::LengthMismatch { .. })
        ));
        let (generation, payload) = store.load_newest(Ok).unwrap().unwrap();
        assert_eq!(
            (generation, payload.as_slice()),
            (1, b"good payload".as_slice())
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_byte_fails_checksum_and_falls_back() {
        let dir = tmpdir("flip");
        let store = SnapshotStore::open(&dir).unwrap();
        store.save(b"generation one").unwrap();
        store.save(b"generation two").unwrap();
        let newest = dir.join("gen-000002.icmsnap");
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40; // flip one bit inside the payload
        fs::write(&newest, &bytes).unwrap();
        assert!(matches!(
            store.load(2),
            Err(LoadError::ChecksumMismatch { .. })
        ));
        let (generation, _) = store.load_newest(Ok).unwrap().unwrap();
        assert_eq!(generation, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_store_version_is_rejected() {
        let dir = tmpdir("ver");
        let store = SnapshotStore::open(&dir).unwrap();
        store.save(b"payload").unwrap();
        let path = dir.join("gen-000001.icmsnap");
        let text = String::from_utf8(fs::read(&path).unwrap()).unwrap();
        fs::write(&path, text.replacen("icmsnap v2 ", "icmsnap v9 ", 1)).unwrap();
        assert_eq!(store.load(1), Err(LoadError::UnknownVersion(9)));
        assert!(matches!(
            store.load_newest(Ok),
            Err(StoreError::NoneValid(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_v1_fnv_framed_generation_is_refused() {
        let dir = tmpdir("v1");
        let store = SnapshotStore::open(&dir).unwrap();
        store.save(b"current framing").unwrap();
        // A generation as the version 1 store wrote it.
        let payload = b"fnv framing";
        let header = format!("icmsnap v1 {:016x} {}\n", fnv1a64(payload), payload.len());
        let old = [header.as_bytes(), payload].concat();
        let path = dir.join("gen-000002.icmsnap");
        fs::write(&path, &old).unwrap();
        assert_eq!(store.load(2), Err(LoadError::UnknownVersion(1)));
        let (generation, payload) = store.load_newest(Ok).unwrap().unwrap();
        assert_eq!(
            (generation, payload.as_slice()),
            (1, b"current framing".as_slice())
        );
        assert_eq!(
            fs::read(&path).unwrap(),
            old,
            "a refused generation is left as it is"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_single_byte_flip_falls_back_or_loads_what_was_written() {
        let dir = tmpdir("flips");
        let store = SnapshotStore::open(&dir).unwrap();
        let payloads: [&[u8]; 2] = [b"first generation", b"second, a little longer"];
        for payload in payloads {
            store.save(payload).unwrap();
        }
        let mut fallbacks = 0;
        for generation in [1u64, 2] {
            let path = dir.join(format!("gen-{generation:06}.icmsnap"));
            let original = fs::read(&path).unwrap();
            for at in 0..original.len() {
                for mask in [0x01u8, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xff] {
                    let mut damaged = original.clone();
                    damaged[at] ^= mask;
                    fs::write(&path, &damaged).unwrap();
                    let context = format!("generation {generation} byte {at} ^ {mask:#04x}");
                    // Any generation that loads holds exactly what was
                    // saved into it, and damage to the newest falls
                    // back to the one before.
                    for g in [1u64, 2] {
                        if let Ok(payload) = store.load(g) {
                            assert_eq!(payload, payloads[g as usize - 1], "{context}");
                        }
                    }
                    let (newest, payload) = store.load_newest(Ok).unwrap().unwrap();
                    assert_eq!(payload, payloads[newest as usize - 1], "{context}");
                    assert!(newest == 2 || generation == 2, "{context}");
                    if newest == 1 {
                        fallbacks += 1;
                    }
                }
            }
            fs::write(&path, &original).unwrap();
        }
        assert!(fallbacks > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_generation_corrupt_reports_all_failures() {
        let dir = tmpdir("all-bad");
        let store = SnapshotStore::open(&dir).unwrap();
        store.save(b"alpha").unwrap();
        store.save(b"beta").unwrap();
        for generation in [1u64, 2] {
            fs::write(dir.join(format!("gen-{generation:06}.icmsnap")), b"garbage").unwrap();
        }
        match store.load_newest(Ok) {
            Err(StoreError::NoneValid(tried)) => {
                assert_eq!(tried.len(), 2);
                assert_eq!(tried[0].0, 2, "failures reported newest first");
            }
            other => panic!("expected NoneValid, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_refused_payload_falls_back_like_a_damaged_frame() {
        let dir = tmpdir("check");
        let store = SnapshotStore::open(&dir).unwrap();
        for payload in [b"ok 1", b"ok 2", b"no 3"] {
            store.save(payload).unwrap();
        }
        let check = |bytes: Vec<u8>| match bytes.strip_prefix(b"ok ") {
            Some(rest) => Ok(rest.to_vec()),
            None => Err(format!("refused {:?}", String::from_utf8_lossy(&bytes))),
        };
        let (generation, value) = store.load_newest(check).unwrap().unwrap();
        assert_eq!((generation, value.as_slice()), (2, b"2".as_slice()));
        // Integrity alone accepts the newest.
        assert_eq!(store.load_newest(Ok).unwrap().unwrap().0, 3);
        fs::write(dir.join("gen-000002.icmsnap"), b"junk").unwrap();
        assert_eq!(store.load_newest(check).unwrap().unwrap().0, 1);
        let mut skipped = Vec::new();
        let found = store.load_newest_noting(check, |g, e| skipped.push((g, e.clone())));
        assert_eq!(found.unwrap().unwrap().0, 1);
        assert!(
            matches!(
                skipped.as_slice(),
                [(3, LoadError::Payload(_)), (2, LoadError::BadHeader(_))]
            ),
            "newest first, with reasons: {skipped:?}"
        );
        fs::write(dir.join("gen-000001.icmsnap"), b"junk").unwrap();
        let err = store.load_newest(check).unwrap_err();
        match &err {
            StoreError::NoneValid(tried) => {
                let generations: Vec<u64> = tried.iter().map(|(g, _)| *g).collect();
                assert_eq!(generations, vec![3, 2, 1], "newest first");
                assert!(matches!(tried[0].1, LoadError::Payload(_)));
                assert!(matches!(tried[1].1, LoadError::BadHeader(_)));
            }
            other => panic!("expected NoneValid, got {other:?}"),
        }
        let message = err.to_string();
        assert!(
            message.contains("generation 3: refused \"no 3\""),
            "{message}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_bounds_the_store_and_keeps_the_newest() {
        let dir = tmpdir("prune");
        let store = SnapshotStore::open(&dir).unwrap();
        for payload in [b"g1", b"g2", b"g3", b"g4", b"g5"] {
            store.save(payload).unwrap();
        }
        let removed = store.prune(2).unwrap();
        assert_eq!(removed, vec![1, 2, 3]);
        assert_eq!(store.generations().unwrap(), vec![4, 5]);
        let (generation, payload) = store.load_newest(Ok).unwrap().unwrap();
        assert_eq!((generation, payload.as_slice()), (5, b"g5".as_slice()));
        // Pruning again is a no-op.
        assert!(store.prune(2).unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_never_deletes_the_newest_loadable_generation() {
        let dir = tmpdir("prune-loadable");
        let store = SnapshotStore::open(&dir).unwrap();
        for payload in [b"g1", b"g2", b"g3", b"g4"] {
            store.save(payload).unwrap();
        }
        // Corrupt the two newest generations, then reopen: the damage
        // comes from an earlier life, so the newest *loadable* one is
        // now gen 2, which a filename-count prune would delete.
        for generation in [3u64, 4] {
            fs::write(dir.join(format!("gen-{generation:06}.icmsnap")), b"junk").unwrap();
        }
        let store = SnapshotStore::open(&dir).unwrap();
        let removed = store.prune(1).unwrap();
        assert_eq!(
            removed,
            vec![1, 3],
            "gen 2 must survive, it is the fallback"
        );
        assert_eq!(store.generations().unwrap(), vec![2, 4]);
        let (generation, payload) = store.load_newest(Ok).unwrap().unwrap();
        assert_eq!((generation, payload.as_slice()), (2, b"g2".as_slice()));
        // keep_last = 0 is clamped: the store never prunes itself empty.
        assert!(store.prune(0).unwrap().is_empty());
        assert!(store.load_newest(Ok).unwrap().is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_keeps_its_own_newest_write_without_reading_it() {
        let dir = tmpdir("prune-own");
        let store = SnapshotStore::open(&dir).unwrap();
        for payload in [b"g1", b"g2", b"g3"] {
            store.save(payload).unwrap();
        }
        // Damage the store's own newest write behind its back. Within
        // one life the store trusts what it wrote, so prune keeps gen 3
        // as the newest loadable generation and does not read it: a
        // prune that read it would keep gen 2 as the fallback instead.
        fs::write(dir.join("gen-000003.icmsnap"), b"junk").unwrap();
        assert_eq!(store.prune(1).unwrap(), vec![1, 2]);
        assert_eq!(store.generations().unwrap(), vec![3]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopening_a_store_continues_the_numbering() {
        let dir = tmpdir("reopen");
        let store = SnapshotStore::open(&dir).unwrap();
        store.save(b"one").unwrap();
        store.save(b"two").unwrap();
        store.prune(1).unwrap();
        let reopened = SnapshotStore::open(&dir).unwrap();
        assert_eq!(reopened.save(b"three").unwrap(), 3);
        assert_eq!(reopened.generations().unwrap(), vec![2, 3]);
        assert_eq!(reopened.load(2).unwrap(), b"two");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_generation_another_writer_placed_is_never_overwritten() {
        let dir = tmpdir("foreign");
        let store = SnapshotStore::open(&dir).unwrap();
        let other = SnapshotStore::open(&dir).unwrap();
        assert_eq!(other.save(b"theirs").unwrap(), 1);
        assert_eq!(store.save(b"mine").unwrap(), 2);
        // A foreign file two numbers ahead: the stat on gen 3 finds it
        // and the store numbers above the newest on disk.
        fs::write(dir.join("gen-000003.icmsnap"), b"not ours").unwrap();
        assert_eq!(store.save(b"mine again").unwrap(), 4);
        assert_eq!(store.load(1).unwrap(), b"theirs");
        assert_eq!(
            fs::read(dir.join("gen-000003.icmsnap")).unwrap(),
            b"not ours"
        );
        assert_eq!(store.load(4).unwrap(), b"mine again");
        // The newest on disk is this store's own write again, so prune
        // keeps it; the foreign junk is pruned like any old generation.
        assert_eq!(store.prune(1).unwrap(), vec![1, 2, 3]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsynced_stores_write_the_same_bytes() {
        let synced = tmpdir("synced");
        let unsynced = tmpdir("unsynced");
        let a = SnapshotStore::open(&synced).unwrap();
        let b = SnapshotStore::open_with_sync(&unsynced, false).unwrap();
        for payload in [b"first".as_slice(), b"", b"third\npayload"] {
            assert_eq!(a.save(payload).unwrap(), b.save(payload).unwrap());
        }
        for generation in 1..=3u64 {
            let name = format!("gen-{generation:06}.icmsnap");
            assert_eq!(
                fs::read(synced.join(&name)).unwrap(),
                fs::read(unsynced.join(&name)).unwrap()
            );
        }
        assert_eq!(
            fs::read(synced.join("gen-000001.icmsnap")).unwrap(),
            b"icmsnap v2 cc98257fe4be8f5a 5\nfirst"
        );
        assert!(!unsynced.join("gen-000003.icmsnap.tmp").exists());
        fs::remove_dir_all(&synced).unwrap();
        fs::remove_dir_all(&unsynced).unwrap();
    }
}
