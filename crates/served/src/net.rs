//! Transport abstraction: one address grammar and one connection type
//! over TCP and Unix-domain sockets, so the server, the embedded
//! client, and the CLI all speak through the same plumbing.
//!
//! # Concurrency contract
//!
//! [`Addr`] is plain data. A [`Conn`] wraps one socket and must be
//! owned by one thread at a time (frames interleaved by two writers are
//! garbage — see [`crate::protocol`]). A [`Listener`] is owned by the
//! one thread that accepts on it.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// A parsed server address: either a TCP `host:port` or a Unix-domain
/// socket path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Addr {
    /// TCP endpoint, e.g. `127.0.0.1:7437`.
    Tcp(String),
    /// Unix-domain socket path, e.g. `/run/oraql/served.sock`.
    Unix(PathBuf),
}

impl Addr {
    /// Parses the address grammar used by `--server`, `--listen`, and
    /// the `server =` config key:
    ///
    /// * `unix:<path>` — Unix-domain socket (explicit);
    /// * anything containing a `/` — Unix-domain socket (a path);
    /// * otherwise — TCP `host:port`.
    pub fn parse(s: &str) -> Addr {
        if let Some(path) = s.strip_prefix("unix:") {
            Addr::Unix(PathBuf::from(path))
        } else if s.contains('/') {
            Addr::Unix(PathBuf::from(s))
        } else {
            Addr::Tcp(s.to_string())
        }
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Addr::Tcp(hp) => write!(f, "{hp}"),
            Addr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// One accepted or dialed connection (either transport).
#[derive(Debug)]
pub enum Conn {
    /// A TCP stream.
    Tcp(TcpStream),
    /// A Unix-domain stream.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    /// Dials `addr`, bounding the connection attempt by `timeout`
    /// (best effort: Unix-domain connects are effectively immediate and
    /// ignore it).
    pub fn connect(addr: &Addr, timeout: Duration) -> io::Result<Conn> {
        match addr {
            Addr::Tcp(hp) => {
                let sa = hp
                    .to_socket_addrs()?
                    .next()
                    .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "empty address"))?;
                Ok(Conn::Tcp(TcpStream::connect_timeout(&sa, timeout)?))
            }
            #[cfg(unix)]
            Addr::Unix(p) => Ok(Conn::Unix(UnixStream::connect(p)?)),
            #[cfg(not(unix))]
            Addr::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix-domain sockets are not available on this platform",
            )),
        }
    }

    /// Sets the read timeout (None = block forever). The server uses a
    /// short timeout so idle connection threads notice shutdown; the
    /// client uses it so a hung server cannot stall a probe.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(t),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_read_timeout(t),
        }
    }

    /// Sets the write timeout (None = block forever).
    pub fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(t),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_write_timeout(t),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// A bound listening socket (either transport).
#[derive(Debug)]
pub enum Listener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain listener.
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    /// Binds `addr`. For Unix-domain addresses a stale socket file from
    /// a previous (crashed) daemon is removed first — the journal locks
    /// protect the data, the socket file is just a rendezvous point.
    pub fn bind(addr: &Addr) -> io::Result<Listener> {
        match addr {
            Addr::Tcp(hp) => Ok(Listener::Tcp(TcpListener::bind(hp.as_str())?)),
            #[cfg(unix)]
            Addr::Unix(p) => {
                let _ = std::fs::remove_file(p);
                if let Some(dir) = p.parent() {
                    if !dir.as_os_str().is_empty() {
                        std::fs::create_dir_all(dir)?;
                    }
                }
                Ok(Listener::Unix(UnixListener::bind(p)?))
            }
            #[cfg(not(unix))]
            Addr::Unix(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix-domain sockets are not available on this platform",
            )),
        }
    }

    /// The address this listener actually bound — for TCP this resolves
    /// `:0` to the kernel-assigned port, which is how in-process tests
    /// avoid port collisions.
    pub fn local_addr(&self) -> io::Result<Addr> {
        match self {
            Listener::Tcp(l) => Ok(Addr::Tcp(l.local_addr()?.to_string())),
            #[cfg(unix)]
            Listener::Unix(l) => {
                let sa = l.local_addr()?;
                let p = sa.as_pathname().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "unnamed unix socket")
                })?;
                Ok(Addr::Unix(p.to_path_buf()))
            }
        }
    }

    /// Blocks until a peer connects and returns the connection.
    pub fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => Ok(Conn::Tcp(l.accept()?.0)),
            #[cfg(unix)]
            Listener::Unix(l) => Ok(Conn::Unix(l.accept()?.0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_grammar() {
        assert_eq!(
            Addr::parse("127.0.0.1:7437"),
            Addr::Tcp("127.0.0.1:7437".into())
        );
        assert_eq!(Addr::parse("localhost:0"), Addr::Tcp("localhost:0".into()));
        assert_eq!(
            Addr::parse("unix:/tmp/o.sock"),
            Addr::Unix(PathBuf::from("/tmp/o.sock"))
        );
        assert_eq!(
            Addr::parse("/tmp/o.sock"),
            Addr::Unix(PathBuf::from("/tmp/o.sock"))
        );
        assert_eq!(Addr::parse("unix:rel.sock"), Addr::Unix("rel.sock".into()));
        assert_eq!(Addr::parse("127.0.0.1:7437").to_string(), "127.0.0.1:7437");
        assert_eq!(Addr::parse("/tmp/o.sock").to_string(), "unix:/tmp/o.sock");
    }
}
