//! The one way a node's bytes reach its disk and come back: a [`Disk`],
//! which prices what it runs.
//!
//! A [`Disk`] opens, appends, syncs, cuts, replaces, reads and removes
//! files, and charges each access to its owner's CPU through a [`Cpu`],
//! the way a storage `Sealer` charges through its meter. A write and its
//! sync cost [`CostModel::ssd_append_ns`] of the bytes and two world
//! switches under SCONE; a read costs [`CostModel::storage_read_ns`] of
//! the bytes and one. Each method says whether, and when, it charges;
//! DESIGN.md §1 has the table.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, ErrorKind, Result, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::rc::Rc;

use crate::obs::{counter_add, Counter};
use crate::{CostModel, Nanos, TeeMode};

/// The write buffer of a [`Writer`]: a flush-sized table in a handful of
/// `write` calls, without holding a whole compaction output twice.
const WRITE_BUFFER_BYTES: usize = 256 << 10;

/// Told the virtual time each [`Disk`] access costs its owner's CPU.
pub trait Cpu: std::fmt::Debug {
    /// Charges `ns` of CPU.
    fn charge(&self, ns: Nanos);
}

/// A [`Cpu`] that sleeps: an owner with no core pool, such as a trusted
/// counter replica. Only a fiber may charge it.
#[derive(Debug)]
pub struct Sleep;

impl Cpu for Sleep {
    fn charge(&self, ns: Nanos) {
        crate::runtime::sleep(ns);
    }
}

/// A node's files under one TEE mode, priced by one cost model and
/// charged to one [`Cpu`].
#[derive(Debug, Clone)]
pub struct Disk {
    tee: TeeMode,
    costs: CostModel,
    cpu: Rc<dyn Cpu>,
}

impl Disk {
    /// A disk whose accesses `cpu` is charged for, priced by `costs`
    /// under `tee`.
    pub fn new(tee: TeeMode, costs: CostModel, cpu: Rc<dyn Cpu>) -> Self {
        Disk { tee, costs, cpu }
    }

    /// The price of appending `bytes` and syncing them.
    pub fn append_ns(&self, bytes: usize) -> Nanos {
        self.costs.ssd_append_ns(self.tee, bytes)
    }

    /// Charges a write of `bytes` and its sync: two syscalls, each an
    /// enclave↔host crossing under SCONE.
    fn charge_append(&self, bytes: usize) {
        if self.tee == TeeMode::Scone {
            counter_add(Counter::TeeWorldSwitch, 2);
        }
        self.cpu.charge(self.append_ns(bytes));
    }

    /// Charges a page-cache-resident read of `bytes`: one syscall.
    fn charge_read(&self, bytes: usize) {
        if self.tee == TeeMode::Scone {
            counter_add(Counter::TeeWorldSwitch, 1);
        }
        self.cpu.charge(self.costs.storage_read_ns(self.tee, bytes));
    }

    /// Creates `dir` and its parents. Unpriced.
    pub fn create_dir(&self, dir: &Path) -> Result<()> {
        std::fs::create_dir_all(dir)
    }

    /// Opens `path` for appending, creating it if it is missing. Unpriced.
    pub fn appender(self, path: &Path) -> Result<Appender> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Appender { disk: self, file })
    }

    /// Creates `path` (emptying it if it exists) to be written once.
    pub fn writer(self, path: &Path) -> Result<Writer> {
        let file = BufWriter::with_capacity(WRITE_BUFFER_BYTES, File::create(path)?);
        Ok(Writer {
            disk: self,
            file,
            written: 0,
        })
    }

    /// Opens `path` for positioned reads. Unpriced.
    pub fn reader(self, path: &Path) -> Result<Reader> {
        let file = File::open(path)?;
        let size = file.metadata()?.len();
        Ok(Reader {
            disk: self,
            file,
            size,
        })
    }

    /// The whole of `path`, priced by its length; `None`, unpriced, if
    /// the file is missing.
    pub fn read(&self, path: &Path) -> Result<Option<Vec<u8>>> {
        let raw = self.read_unpriced(path)?;
        if let Some(raw) = &raw {
            self.charge_read(raw.len());
        }
        Ok(raw)
    }

    /// [`Disk::read`], unpriced: a replica's seal, read once at restart.
    pub fn read_unpriced(&self, path: &Path) -> Result<Option<Vec<u8>>> {
        match std::fs::read(path) {
            Ok(raw) => Ok(Some(raw)),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Cuts `path` back to its first `len` bytes and syncs it: a log's
    /// torn tail. Unpriced.
    pub fn cut(&self, path: &Path, len: u64) -> Result<()> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(len)?;
        file.sync_all()
    }

    /// Replaces `path` with `bytes` whole: writes them to `path` with the
    /// extension `tmp`, then renames that over `path`. Priced as an
    /// append of `bytes`, before the write.
    pub fn replace(&self, path: &Path, bytes: &[u8]) -> Result<()> {
        self.charge_append(bytes.len());
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, path)
    }

    /// Removes `path`. Unpriced.
    pub fn remove(&self, path: &Path) -> Result<()> {
        std::fs::remove_file(path)
    }
}

/// A file open for appending: each append is written and synced.
#[derive(Debug)]
pub struct Appender {
    disk: Disk,
    file: File,
}

impl Appender {
    /// Writes `bytes` at the end of the file and syncs them. Priced
    /// before the write.
    pub fn append(&self, bytes: &[u8]) -> Result<()> {
        self.disk.charge_append(bytes.len());
        (&self.file).write_all(bytes)?;
        self.file.sync_data()
    }
}

/// A file written once, through a buffer, and synced by
/// [`Writer::finish`].
#[derive(Debug)]
pub struct Writer {
    disk: Disk,
    file: BufWriter<File>,
    written: usize,
}

impl Writer {
    /// Writes `bytes` after what was written before. Unpriced until
    /// [`Writer::finish`].
    pub fn write(&mut self, bytes: &[u8]) -> Result<()> {
        self.file.write_all(bytes)?;
        self.written += bytes.len();
        Ok(())
    }

    /// Syncs the file, then prices every byte written as one append.
    pub fn finish(self) -> Result<()> {
        self.file
            .into_inner()
            .map_err(|e| e.into_error())?
            .sync_data()?;
        self.disk.charge_append(self.written);
        Ok(())
    }
}

/// A file open for positioned reads; its length is taken at open.
#[derive(Debug)]
pub struct Reader {
    disk: Disk,
    file: File,
    size: u64,
}

impl Reader {
    /// The file's length in bytes when it was opened.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The file's last `N` bytes. Unpriced.
    pub fn tail<const N: usize>(&self) -> Result<[u8; N]> {
        let mut tail = [0u8; N];
        // A file shorter than `N` fails the read: `UnexpectedEof`.
        let at = self.size.saturating_sub(N as u64);
        self.file.read_exact_at(&mut tail, at)?;
        Ok(tail)
    }

    /// The `len` bytes at `offset`, priced after the read; a read past
    /// the end is [`ErrorKind::UnexpectedEof`].
    pub fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; len];
        self.file.read_exact_at(&mut buf, offset)?;
        self.disk.charge_read(len);
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::{install, Obs};
    use crate::runtime::Sim;
    use std::cell::RefCell;
    use std::path::PathBuf;

    /// A CPU that writes down what it is charged.
    #[derive(Debug, Default)]
    struct Tape(RefCell<Vec<Nanos>>);

    impl Cpu for Tape {
        fn charge(&self, ns: Nanos) {
            self.0.borrow_mut().push(ns);
        }
    }

    /// A fresh directory for one test, removed when dropped.
    struct Dir(PathBuf);

    impl Dir {
        fn new(name: &str) -> Self {
            let pid = std::process::id();
            let dir = std::env::temp_dir().join(format!(".treaty-disk-{name}-{pid}"));
            let _ = std::fs::remove_dir_all(&dir);
            Dir(dir)
        }
    }

    impl Drop for Dir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// What each access was charged, and the world switches it counted.
    type Told = Vec<(&'static str, Vec<Nanos>, u64)>;

    /// Runs every access once on a disk under `tee`, in a fresh directory.
    fn each_access(tee: TeeMode, costs: CostModel) -> Told {
        let dir = Dir::new(&format!("{tee:?}"));
        let told = Rc::new(RefCell::new(Told::new()));
        let obs = Obs::with_default_cap();
        let out = Rc::clone(&told);
        Sim::new()
            .run(move || {
                install(&obs);
                let tape = Rc::new(Tape::default());
                let disk = Disk::new(tee, costs, tape.clone());
                let mut seen = 0;
                let mut tell = |access| {
                    let switches = obs.metrics().counter(Counter::TeeWorldSwitch);
                    out.borrow_mut()
                        .push((access, tape.0.take(), switches - seen));
                    seen = switches;
                };
                let (log, table, seal) = (dir.0.join("log"), dir.0.join("sst"), dir.0.join("seal"));
                disk.create_dir(&dir.0).unwrap();
                tell("create_dir");
                let appender = disk.clone().appender(&log).unwrap();
                tell("appender");
                appender.append(&[1; 100]).unwrap();
                tell("append");
                assert_eq!(disk.read(&log).unwrap(), Some(vec![1; 100]));
                tell("read");
                disk.cut(&log, 40).unwrap();
                tell("cut");
                assert_eq!(std::fs::metadata(&log).unwrap().len(), 40);
                assert_eq!(disk.read(&dir.0.join("missing")).unwrap(), None);
                tell("read a missing file");
                let mut writer = disk.clone().writer(&table).unwrap();
                writer.write(&[2; 3000]).unwrap();
                writer.write(&[3; 1000]).unwrap();
                tell("writer, write");
                writer.finish().unwrap();
                tell("finish");
                let reader = disk.clone().reader(&table).unwrap();
                tell("reader");
                assert_eq!(reader.tail::<16>().unwrap(), [3; 16]);
                tell("tail");
                assert_eq!(reader.read_at(2990, 20).unwrap()[9..11], [2, 3]);
                tell("read_at");
                disk.replace(&seal, &[4; 500]).unwrap();
                tell("replace");
                assert_eq!(disk.read_unpriced(&seal).unwrap(), Some(vec![4; 500]));
                tell("read_unpriced");
                disk.remove(&table).unwrap();
                tell("remove");
            })
            .unwrap();
        told.take()
    }

    #[test]
    fn each_access_charges_its_price_and_counts_its_switches() {
        let costs = CostModel::default();
        for tee in [TeeMode::Native, TeeMode::Scone] {
            let append = |bytes| vec![costs.ssd_append_ns(tee, bytes)];
            let read = |bytes| vec![costs.storage_read_ns(tee, bytes)];
            let (write, fetch) = match tee {
                TeeMode::Native => (0, 0),
                TeeMode::Scone => (2, 1),
            };
            let free = || (vec![], 0);
            let want = [
                ("create_dir", free()),
                ("appender", free()),
                ("append", (append(100), write)),
                ("read", (read(100), fetch)),
                ("cut", free()),
                ("read a missing file", free()),
                ("writer, write", free()),
                ("finish", (append(4000), write)),
                ("reader", free()),
                ("tail", free()),
                ("read_at", (read(20), fetch)),
                ("replace", (append(500), write)),
                ("read_unpriced", free()),
                ("remove", free()),
            ]
            .map(|(access, (ns, switches))| (access, ns, switches));
            assert_eq!(each_access(tee, costs.clone()), want, "{tee:?}");
        }
    }

    #[test]
    fn scone_storage_ops_cost_more() {
        let m = CostModel::default();
        let native = Disk::new(TeeMode::Native, m.clone(), Rc::new(Tape::default()));
        let scone = Disk::new(TeeMode::Scone, m, Rc::new(Tape::default()));
        assert!(scone.append_ns(4096) > native.append_ns(4096));
    }
}
