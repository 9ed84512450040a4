//! Byte-stream abstraction under the wire protocol.
//!
//! The client and server speak to a [`Link`] — any reliable, ordered
//! byte stream with read/write timeouts. TCP and (on unix) unix-domain
//! sockets implement it for production; [`crate::chaos`] implements it
//! in-memory with seeded fault injection for the chaos harness.
//! Connection establishment is likewise abstracted: the client owns a
//! [`Dial`], the server an [`Accept`], so every robustness test runs
//! the *real* client/server code paths with only the transport swapped.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A reliable ordered byte stream with configurable timeouts.
///
/// `read` must return `Ok(0)` at end-of-stream and an error of kind
/// [`io::ErrorKind::WouldBlock`] or [`io::ErrorKind::TimedOut`] when a
/// read timeout elapses before the first byte.
///
/// A link is blocking unless switched with [`Link::set_nonblocking`].
/// In non-blocking mode a `read` that finds no data returns
/// [`io::ErrorKind::WouldBlock`] at once, whatever the read timeout; a
/// read that finds some data returns it. Writes are only guaranteed in
/// blocking mode, so a caller switches back before it writes. The
/// switch leaves the timeouts as they were.
pub trait Link: io::Read + io::Write + Send {
    /// Bounds every subsequent read; `None` blocks indefinitely.
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()>;
    /// Bounds every subsequent write; `None` blocks indefinitely.
    fn set_write_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()>;
    /// Switches reads between non-blocking (`true`) and blocking
    /// (`false`) mode, per the trait docs.
    fn set_nonblocking(&mut self, nonblocking: bool) -> io::Result<()>;
}

/// Client-side connection factory (one per [`crate::SocketSink`]).
pub trait Dial: Send {
    /// Establishes a fresh connection, spending at most `timeout`.
    fn dial(&mut self, timeout: Duration) -> io::Result<Box<dyn Link>>;
}

/// Server-side connection source (one per serve loop).
pub trait Accept: Send {
    /// Blocks for the next inbound connection. Returning an error of
    /// kind [`io::ErrorKind::NotConnected`] means the acceptor was
    /// closed: the serve loop ends cleanly instead of erroring.
    fn accept(&mut self) -> io::Result<Box<dyn Link>>;
}

impl Link for TcpStream {
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }

    fn set_write_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_write_timeout(self, timeout)
    }

    fn set_nonblocking(&mut self, nonblocking: bool) -> io::Result<()> {
        TcpStream::set_nonblocking(self, nonblocking)
    }
}

/// Dials a fixed TCP address (resolved once at construction).
#[derive(Debug, Clone)]
pub struct TcpDialer {
    addr: SocketAddr,
}

impl TcpDialer {
    /// Resolves `addr` to its first socket address.
    pub fn new(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "address resolved to nothing",
            )
        })?;
        Ok(Self { addr })
    }

    /// The resolved target address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Dial for TcpDialer {
    fn dial(&mut self, timeout: Duration) -> io::Result<Box<dyn Link>> {
        let stream = TcpStream::connect_timeout(&self.addr, timeout)?;
        // Frames are latency-sensitive (acks gate the in-flight window).
        stream.set_nodelay(true).ok();
        Ok(Box::new(stream))
    }
}

/// Accepts TCP connections from a bound listener.
#[derive(Debug)]
pub struct TcpAcceptor {
    listener: TcpListener,
}

impl TcpAcceptor {
    /// Binds `addr` (use port 0 for an ephemeral port, then
    /// [`TcpAcceptor::local_addr`]).
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// Wraps an already-bound listener.
    pub fn from_listener(listener: TcpListener) -> Self {
        Self { listener }
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }
}

impl Accept for TcpAcceptor {
    fn accept(&mut self) -> io::Result<Box<dyn Link>> {
        let (stream, _) = self.listener.accept()?;
        stream.set_nodelay(true).ok();
        Ok(Box::new(stream))
    }
}

#[cfg(unix)]
mod unix {
    use super::{Accept, Dial, Link};
    use std::io;
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::PathBuf;
    use std::time::Duration;

    impl Link for UnixStream {
        fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
            UnixStream::set_read_timeout(self, timeout)
        }

        fn set_write_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
            UnixStream::set_write_timeout(self, timeout)
        }

        fn set_nonblocking(&mut self, nonblocking: bool) -> io::Result<()> {
            UnixStream::set_nonblocking(self, nonblocking)
        }
    }

    /// Dials a unix-domain socket path. Unix connects are local
    /// rendezvous, not network round trips, so the dial timeout is not
    /// applied (std offers no timed unix connect).
    #[derive(Debug, Clone)]
    pub struct UnixDialer {
        path: PathBuf,
    }

    impl UnixDialer {
        /// Dialer for the socket at `path`.
        pub fn new(path: impl Into<PathBuf>) -> Self {
            Self { path: path.into() }
        }
    }

    impl Dial for UnixDialer {
        fn dial(&mut self, _timeout: Duration) -> io::Result<Box<dyn Link>> {
            Ok(Box::new(UnixStream::connect(&self.path)?))
        }
    }

    /// Accepts connections on a unix-domain socket.
    #[derive(Debug)]
    pub struct UnixAcceptor {
        listener: UnixListener,
    }

    impl UnixAcceptor {
        /// Binds the socket at `path` (the path must not exist yet).
        pub fn bind(path: impl Into<PathBuf>) -> io::Result<Self> {
            Ok(Self {
                listener: UnixListener::bind(path.into())?,
            })
        }
    }

    impl Accept for UnixAcceptor {
        fn accept(&mut self) -> io::Result<Box<dyn Link>> {
            let (stream, _) = self.listener.accept()?;
            Ok(Box::new(stream))
        }
    }
}

#[cfg(unix)]
pub use unix::{UnixAcceptor, UnixDialer};
