//! In-memory virtual filesystem for the emulated shell.
//!
//! A tree of directories and files with content bytes and a simplified mode,
//! seeded with a busybox-style layout so commands like `ls /bin`,
//! `cat /etc/passwd`, or `cat /proc/cpuinfo` produce plausible output.
//! All honeypot sessions share the same initial image but mutate a private
//! copy, exactly like Cowrie's per-session copy-on-login filesystem.
//!
//! The tree is copy-on-write from the root down: the root and every child
//! are `Arc`-shared and directory names are `Arc<str>`, so cloning a `Vfs`
//! (one per session) costs one reference count, a session that only reads
//! copies nothing, and the first mutation along a path copies just the
//! directories on that path ([`Arc::make_mut`]), each as a B-tree of shared
//! names and children. Each honeypot node builds its seeded image once
//! (`HoneypotConfig` in `hf-honeypot` holds it) and starts every session on
//! a clone of it.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::profile::SystemProfile;

/// Node type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// Directory with named children; names and children are `Arc`-shared,
    /// so copying a directory on write copies only its B-tree nodes.
    Dir(BTreeMap<Arc<str>, Arc<Node>>),
    /// Regular file with content.
    File(Vec<u8>),
}

/// A filesystem node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Contents.
    pub kind: NodeKind,
    /// Simplified permission bits (e.g. 0o755).
    pub mode: u32,
}

impl Node {
    fn dir() -> Node {
        Node {
            kind: NodeKind::Dir(BTreeMap::new()),
            mode: 0o755,
        }
    }

    fn file(content: &[u8], mode: u32) -> Node {
        Node {
            kind: NodeKind::File(content.to_vec()),
            mode,
        }
    }

    /// Is this node a directory?
    pub fn is_dir(&self) -> bool {
        matches!(self.kind, NodeKind::Dir(_))
    }
}

/// Errors from VFS operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VfsError {
    /// Path (or a parent) does not exist.
    NotFound(String),
    /// Path exists but is a directory where a file is needed (or vice versa).
    WrongKind(String),
    /// Attempt to overwrite or remove something that must stay.
    Exists(String),
}

impl std::fmt::Display for VfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VfsError::NotFound(p) => write!(f, "{p}: No such file or directory"),
            VfsError::WrongKind(p) => write!(f, "{p}: Is a directory"),
            VfsError::Exists(p) => write!(f, "{p}: File exists"),
        }
    }
}

impl std::error::Error for VfsError {}

/// The virtual filesystem. Cloning it shares the whole tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Vfs {
    root: Arc<Node>,
}

/// Normalize a path against a current working directory: makes it absolute and
/// resolves `.` and `..` components lexically.
pub fn resolve_path(cwd: &str, path: &str) -> String {
    let mut out = String::new();
    resolve_path_into(cwd, path, &mut out);
    out
}

/// [`resolve_path`] into a caller-provided buffer — the hot-path form; the
/// buffer's capacity is reused so steady-state resolution never allocates.
pub fn resolve_path_into(cwd: &str, path: &str, out: &mut String) {
    out.clear();
    fn push_comp(out: &mut String, comp: &str) {
        match comp {
            "" | "." => {}
            ".." => {
                if let Some(i) = out.rfind('/') {
                    out.truncate(i);
                }
            }
            c => {
                out.push('/');
                out.push_str(c);
            }
        }
    }
    if !path.starts_with('/') {
        for comp in cwd.split('/') {
            push_comp(out, comp);
        }
    }
    for comp in path.split('/') {
        push_comp(out, comp);
    }
    if out.is_empty() {
        out.push('/');
    }
}

impl Vfs {
    /// An empty filesystem (just `/`).
    pub fn empty() -> Self {
        Vfs {
            root: Arc::new(Node::dir()),
        }
    }

    /// A busybox-style image parameterized by the machine profile.
    pub fn seeded(profile: &SystemProfile) -> Self {
        let mut fs = Vfs::empty();
        for d in [
            "/bin",
            "/sbin",
            "/usr/bin",
            "/usr/sbin",
            "/etc",
            "/etc/init.d",
            "/dev",
            "/proc",
            "/sys",
            "/tmp",
            "/var",
            "/var/run",
            "/var/tmp",
            "/var/log",
            "/root",
            "/home",
            "/opt",
            "/lib",
            "/mnt",
        ] {
            fs.mkdir_p(d).expect("seed dirs");
        }
        // Fake binaries so `ls /bin` and `which` look right.
        for b in [
            "busybox", "sh", "ash", "cat", "chmod", "cp", "echo", "grep", "kill", "ls", "mkdir",
            "mount", "mv", "ping", "ps", "rm", "sed", "sleep", "su", "touch", "uname", "dd", "df",
            "head", "tail", "wget", "tftp", "free", "top", "nproc",
        ] {
            fs.write_file(&format!("/bin/{b}"), b"\x7fELF", 0o755)
                .unwrap();
        }
        for b in ["ifconfig", "reboot", "init", "iptables", "telnetd"] {
            fs.write_file(&format!("/sbin/{b}"), b"\x7fELF", 0o755)
                .unwrap();
        }
        fs.write_file(
            "/etc/passwd",
            format!(
                "root:x:0:0:root:/root:/bin/sh\n\
                 daemon:x:1:1:daemon:/usr/sbin:/bin/false\n\
                 {}:x:1000:1000::/home/{}:/bin/sh\n",
                profile.service_user, profile.service_user
            )
            .as_bytes(),
            0o644,
        )
        .unwrap();
        fs.write_file("/etc/shadow", b"root:*:18113:0:99999:7:::\n", 0o600)
            .unwrap();
        fs.write_file(
            "/etc/hostname",
            format!("{}\n", profile.hostname).as_bytes(),
            0o644,
        )
        .unwrap();
        fs.write_file("/etc/resolv.conf", b"nameserver 8.8.8.8\n", 0o644)
            .unwrap();
        fs.write_file("/proc/cpuinfo", profile.cpuinfo().as_bytes(), 0o444)
            .unwrap();
        fs.write_file("/proc/meminfo", profile.meminfo().as_bytes(), 0o444)
            .unwrap();
        fs.write_file(
            "/proc/version",
            format!(
                "Linux version {} (gcc version 8.3.0) #1 SMP {}\n",
                profile.kernel_version, profile.build_date
            )
            .as_bytes(),
            0o444,
        )
        .unwrap();
        fs.write_file("/proc/mounts", b"/dev/root / ext4 rw 0 0\n", 0o444)
            .unwrap();
        fs.write_file("/dev/null", b"", 0o666).unwrap();
        fs.write_file("/var/log/wtmp", b"", 0o664).unwrap();
        fs
    }

    fn lookup(&self, abs: &str) -> Option<&Node> {
        let mut cur = &self.root;
        for comp in abs.split('/').filter(|c| !c.is_empty()) {
            match &cur.kind {
                NodeKind::Dir(children) => cur = children.get(comp)?,
                NodeKind::File(_) => return None,
            }
        }
        Some(cur)
    }

    /// Walk to a node for mutation, copy-on-writing each shared `Arc` along
    /// the path. A path that does not exist copies nothing.
    fn lookup_mut(&mut self, abs: &str) -> Option<&mut Node> {
        self.lookup(abs)?;
        let mut cur = Arc::make_mut(&mut self.root);
        for comp in abs.split('/').filter(|c| !c.is_empty()) {
            match &mut cur.kind {
                NodeKind::Dir(children) => cur = Arc::make_mut(children.get_mut(comp)?),
                NodeKind::File(_) => return None,
            }
        }
        Some(cur)
    }

    /// Split an absolute path into (parent, name). `/` has no parent.
    fn parent_and_name(abs: &str) -> Option<(&str, &str)> {
        let trimmed = abs.trim_end_matches('/');
        if trimmed.is_empty() {
            return None;
        }
        match trimmed.rfind('/') {
            Some(0) => Some(("/", &trimmed[1..])),
            Some(i) => Some((&trimmed[..i], &trimmed[i + 1..])),
            None => None,
        }
    }

    /// Does a path exist?
    pub fn exists(&self, abs: &str) -> bool {
        self.lookup(abs).is_some()
    }

    /// Is the path an existing directory?
    pub fn is_dir(&self, abs: &str) -> bool {
        self.lookup(abs).map(|n| n.is_dir()).unwrap_or(false)
    }

    /// Read a file's content.
    pub fn read_file(&self, abs: &str) -> Result<&[u8], VfsError> {
        match self.lookup(abs) {
            None => Err(VfsError::NotFound(abs.to_string())),
            Some(Node {
                kind: NodeKind::File(c),
                ..
            }) => Ok(c),
            Some(_) => Err(VfsError::WrongKind(abs.to_string())),
        }
    }

    /// Create or overwrite a file, creating parents as needed. Returns `true`
    /// if the file already existed (i.e. this was a modification).
    pub fn write_file(&mut self, abs: &str, content: &[u8], mode: u32) -> Result<bool, VfsError> {
        let (parent, name) =
            Self::parent_and_name(abs).ok_or_else(|| VfsError::WrongKind(abs.to_string()))?;
        self.mkdir_p(parent)?;
        let pnode = self.lookup_mut(parent).expect("parent just created");
        match &mut pnode.kind {
            NodeKind::Dir(children) => {
                if let Some(existing) = children.get_mut(name) {
                    match &mut Arc::make_mut(existing).kind {
                        NodeKind::File(c) => {
                            c.clear();
                            c.extend_from_slice(content);
                            Ok(true)
                        }
                        NodeKind::Dir(_) => Err(VfsError::WrongKind(abs.to_string())),
                    }
                } else {
                    children.insert(Arc::from(name), Arc::new(Node::file(content, mode)));
                    Ok(false)
                }
            }
            NodeKind::File(_) => Err(VfsError::WrongKind(parent.to_string())),
        }
    }

    /// Append to a file, creating it if missing. Returns `true` if the file
    /// already existed.
    pub fn append_file(&mut self, abs: &str, content: &[u8]) -> Result<bool, VfsError> {
        if let Some(Node {
            kind: NodeKind::File(c),
            ..
        }) = self.lookup_mut(abs)
        {
            c.extend_from_slice(content);
            return Ok(true);
        }
        self.write_file(abs, content, 0o644)
    }

    /// Create a directory and all parents. A directory that already exists
    /// is left shared: nothing is copied and no name is allocated.
    pub fn mkdir_p(&mut self, abs: &str) -> Result<(), VfsError> {
        if self.is_dir(abs) {
            return Ok(());
        }
        let mut cur = Arc::make_mut(&mut self.root);
        for comp in abs.split('/').filter(|c| !c.is_empty()) {
            match &mut cur.kind {
                NodeKind::Dir(children) => {
                    if !children.contains_key(comp) {
                        children.insert(Arc::from(comp), Arc::new(Node::dir()));
                    }
                    cur = Arc::make_mut(children.get_mut(comp).expect("just ensured"));
                }
                NodeKind::File(_) => return Err(VfsError::WrongKind(abs.to_string())),
            }
            if !cur.is_dir() {
                return Err(VfsError::WrongKind(abs.to_string()));
            }
        }
        Ok(())
    }

    /// Remove a file or (recursively) a directory.
    pub fn remove(&mut self, abs: &str) -> Result<(), VfsError> {
        let (parent, name) =
            Self::parent_and_name(abs).ok_or_else(|| VfsError::Exists("/".to_string()))?;
        if !self.exists(abs) {
            return Err(VfsError::NotFound(abs.to_string()));
        }
        match self.lookup_mut(parent) {
            Some(Node {
                kind: NodeKind::Dir(children),
                ..
            }) => children
                .remove(name)
                .map(|_| ())
                .ok_or(VfsError::NotFound(abs.to_string())),
            _ => Err(VfsError::NotFound(abs.to_string())),
        }
    }

    /// Set permission bits.
    pub fn chmod(&mut self, abs: &str, mode: u32) -> Result<(), VfsError> {
        match self.lookup_mut(abs) {
            Some(n) => {
                n.mode = mode;
                Ok(())
            }
            None => Err(VfsError::NotFound(abs.to_string())),
        }
    }

    /// Mode bits of a path.
    pub fn mode(&self, abs: &str) -> Option<u32> {
        self.lookup(abs).map(|n| n.mode)
    }

    /// File size in bytes (0 for directories).
    pub fn size(&self, abs: &str) -> Option<usize> {
        self.lookup(abs).map(|n| match &n.kind {
            NodeKind::File(c) => c.len(),
            NodeKind::Dir(_) => 0,
        })
    }

    /// Sorted child names of a directory, borrowed from the tree.
    pub fn entries(&self, abs: &str) -> Result<impl Iterator<Item = &str>, VfsError> {
        match self.lookup(abs) {
            None => Err(VfsError::NotFound(abs.to_string())),
            Some(Node {
                kind: NodeKind::Dir(children),
                ..
            }) => Ok(children.keys().map(|k| &**k)),
            Some(_) => Err(VfsError::WrongKind(abs.to_string())),
        }
    }

    /// Copy a file (not directories — matching busybox `cp` without -r).
    pub fn copy_file(&mut self, from: &str, to: &str) -> Result<bool, VfsError> {
        let content = self.read_file(from)?.to_vec();
        let mode = self.mode(from).unwrap_or(0o644);
        // `cp x dir/` semantics: append the basename.
        let dest = if self.is_dir(to) {
            let base = from.rsplit('/').next().unwrap_or(from);
            format!("{}/{}", to.trim_end_matches('/'), base)
        } else {
            to.to_string()
        };
        self.write_file(&dest, &content, mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn resolve_path_cases() {
        assert_eq!(resolve_path("/root", "x"), "/root/x");
        assert_eq!(resolve_path("/root", "/tmp/y"), "/tmp/y");
        assert_eq!(resolve_path("/a/b", "../c"), "/a/c");
        assert_eq!(resolve_path("/a/b", "./d/./e"), "/a/b/d/e");
        assert_eq!(resolve_path("/", ".."), "/");
        assert_eq!(resolve_path("/a", "../../.."), "/");
        assert_eq!(resolve_path("/", ""), "/");
    }

    #[test]
    fn write_and_read() {
        let mut fs = Vfs::empty();
        assert!(!fs.write_file("/tmp/a", b"hi", 0o644).unwrap());
        assert_eq!(fs.read_file("/tmp/a").unwrap(), b"hi");
        assert!(fs.write_file("/tmp/a", b"there", 0o644).unwrap());
        assert_eq!(fs.read_file("/tmp/a").unwrap(), b"there");
    }

    #[test]
    fn append_creates_then_extends() {
        let mut fs = Vfs::empty();
        assert!(!fs
            .append_file("/root/.ssh/authorized_keys", b"k1\n")
            .unwrap());
        assert!(fs
            .append_file("/root/.ssh/authorized_keys", b"k2\n")
            .unwrap());
        assert_eq!(
            fs.read_file("/root/.ssh/authorized_keys").unwrap(),
            b"k1\nk2\n"
        );
    }

    #[test]
    fn mkdir_and_list() {
        let mut fs = Vfs::empty();
        fs.mkdir_p("/a/b/c").unwrap();
        fs.write_file("/a/b/x", b"", 0o644).unwrap();
        assert_eq!(fs.entries("/a/b").unwrap().collect::<Vec<_>>(), ["c", "x"]);
        assert!(fs.is_dir("/a/b/c"));
    }

    #[test]
    fn remove_file_and_dir() {
        let mut fs = Vfs::empty();
        fs.write_file("/t/f", b"x", 0o644).unwrap();
        fs.remove("/t/f").unwrap();
        assert!(!fs.exists("/t/f"));
        fs.remove("/t").unwrap();
        assert!(!fs.exists("/t"));
        assert_eq!(fs.remove("/nope"), Err(VfsError::NotFound("/nope".into())));
    }

    #[test]
    fn chmod_sets_mode() {
        let mut fs = Vfs::empty();
        fs.write_file("/m", b"", 0o644).unwrap();
        fs.chmod("/m", 0o777).unwrap();
        assert_eq!(fs.mode("/m"), Some(0o777));
    }

    #[test]
    fn copy_into_directory_uses_basename() {
        let mut fs = Vfs::empty();
        fs.write_file("/src/bin", b"ELF", 0o755).unwrap();
        fs.mkdir_p("/dst").unwrap();
        fs.copy_file("/src/bin", "/dst").unwrap();
        assert_eq!(fs.read_file("/dst/bin").unwrap(), b"ELF");
        assert_eq!(fs.mode("/dst/bin"), Some(0o755));
    }

    #[test]
    fn seeded_layout_has_expected_files() {
        let fs = Vfs::seeded(&SystemProfile::default());
        assert!(fs.exists("/bin/busybox"));
        assert!(fs.exists("/etc/passwd"));
        let cpuinfo = fs.read_file("/proc/cpuinfo").unwrap();
        assert!(std::str::from_utf8(cpuinfo).unwrap().contains("model name"));
        assert!(fs.is_dir("/tmp"));
    }

    #[test]
    fn write_through_file_fails() {
        let mut fs = Vfs::empty();
        fs.write_file("/f", b"", 0o644).unwrap();
        assert!(matches!(
            fs.write_file("/f/child", b"", 0o644),
            Err(VfsError::WrongKind(_))
        ));
    }

    #[test]
    fn cow_clones_do_not_observe_each_other() {
        let base = Vfs::seeded(&SystemProfile::default());
        let mut a = base.clone();
        let mut b = base.clone();
        a.write_file("/tmp/a-only", b"A", 0o644).unwrap();
        b.write_file("/etc/passwd", b"hacked", 0o644).unwrap();
        b.remove("/bin/busybox").unwrap();
        assert!(!base.exists("/tmp/a-only"));
        assert!(!b.exists("/tmp/a-only"));
        assert!(a.read_file("/etc/passwd").unwrap() != b"hacked");
        assert!(base.exists("/bin/busybox"));
        assert!(a.exists("/bin/busybox"));
        assert!(!b.exists("/bin/busybox"));
    }

    #[test]
    fn clones_share_every_node_until_a_write_copies_its_path() {
        let base = Vfs::seeded(&SystemProfile::default());
        let mut fs = base.clone();
        // Reads, an existing directory and misses leave the tree shared.
        assert!(fs.read_file("/proc/cpuinfo").is_ok());
        fs.mkdir_p("/root").unwrap();
        assert!(fs.remove("/tmp/missing").is_err());
        assert!(fs.chmod("/nope/x", 0o777).is_err());
        assert!(Arc::ptr_eq(&fs.root, &base.root));
        // A write copies the root and the directories on its path only.
        fs.write_file("/root/.ssh/authorized_keys", b"k", 0o600)
            .unwrap();
        assert!(!Arc::ptr_eq(&fs.root, &base.root));
        let child = |v: &Vfs, name: &str| match &v.root.kind {
            NodeKind::Dir(children) => Arc::clone(&children[name]),
            NodeKind::File(_) => unreachable!("the root is a directory"),
        };
        assert!(!Arc::ptr_eq(&child(&fs, "root"), &child(&base, "root")));
        assert!(Arc::ptr_eq(&child(&fs, "bin"), &child(&base, "bin")));
        assert!(Arc::ptr_eq(&child(&fs, "proc"), &child(&base, "proc")));
    }

    #[test]
    fn resolve_path_into_reuses_buffer() {
        let mut buf = String::new();
        resolve_path_into("/root", "../tmp/./x", &mut buf);
        assert_eq!(buf, "/tmp/x");
        resolve_path_into("/a/b", "", &mut buf);
        assert_eq!(buf, "/a/b");
    }

    proptest! {
        /// resolve_path is idempotent when re-resolved from root.
        #[test]
        fn prop_resolve_idempotent(cwd in "(/[a-z]{1,5}){0,3}", p in "[a-z./]{0,20}") {
            let cwd = if cwd.is_empty() { "/".to_string() } else { cwd };
            let once = resolve_path(&cwd, &p);
            let twice = resolve_path("/", &once);
            prop_assert_eq!(once, twice);
        }

        /// write/read roundtrip for arbitrary content.
        #[test]
        fn prop_write_read_roundtrip(content in proptest::collection::vec(any::<u8>(), 0..512)) {
            let mut fs = Vfs::empty();
            fs.write_file("/t/blob", &content, 0o644).unwrap();
            prop_assert_eq!(fs.read_file("/t/blob").unwrap(), &content[..]);
        }
    }
}
