//! Driving the shipped `park` binary: one-shot processes with their peak
//! RSS, and a single-client closed-loop `park serve` session.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// One finished `park` process.
pub struct Finished {
    /// Spawn to exit, with stdout drained.
    pub ms: f64,
    /// Peak resident set size of the process (`ru_maxrss`), in KiB.
    pub maxrss_kb: i64,
    pub exit_ok: bool,
    pub stdout: Vec<u8>,
    pub stderr: Vec<u8>,
}

#[repr(C)]
struct Timeval {
    _sec: i64,
    _usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    _utime: Timeval,
    _stime: Timeval,
    maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Reap `pid`, returning (exited with status 0, peak RSS in KiB). The
/// standard library's `Child::wait` does not report resource usage.
fn reap(pid: u32) -> io::Result<(bool, i64)> {
    let pid = i32::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let zero = || Timeval { _sec: 0, _usec: 0 };
    let mut usage = Rusage {
        _utime: zero(),
        _stime: zero(),
        maxrss: 0,
        _rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable, and laid out as
        // the C `int` and `struct rusage` of 64-bit Linux; `pid` is a child
        // of this process that nothing else waits for.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let exited_zero = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok((exited_zero, usage.maxrss))
}

/// Run `park <args>` to completion. Stderr is kept only when asked for.
pub fn run(park: &Path, args: &[&str], keep_stderr: bool) -> io::Result<Finished> {
    let started = Instant::now();
    let mut child = Command::new(park)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(if keep_stderr {
            Stdio::piped()
        } else {
            Stdio::null()
        })
        .spawn()?;
    let mut stdout = Vec::new();
    let mut stderr = Vec::new();
    let drained = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout)
        .and_then(|_| match child.stderr.take() {
            Some(mut e) => e.read_to_end(&mut stderr).map(|_| ()),
            None => Ok(()),
        });
    if let Err(e) = drained {
        let _ = child.kill();
        let _ = reap(child.id());
        return Err(e);
    }
    let (exit_ok, maxrss_kb) = reap(child.id())?;
    Ok(Finished {
        ms: started.elapsed().as_secs_f64() * 1e3,
        maxrss_kb,
        exit_ok,
        stdout,
        stderr,
    })
}

/// A `park serve` process (no flags) driven over its stdin/stdout by one
/// client that waits for each frame before sending the next request.
pub struct Serve {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    done: bool,
}

impl Serve {
    /// Spawn and read the `hello` frame.
    pub fn spawn(park: &Path) -> io::Result<Serve> {
        let mut child = Command::new(park)
            .arg("serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut serve = Serve {
            child,
            stdin: Some(stdin),
            stdout,
            done: false,
        };
        let hello = serve.read_frame()?;
        if !hello.starts_with(r#"{"frame":"hello""#) {
            return Err(io::Error::other(format!("unexpected greeting: {hello}")));
        }
        Ok(serve)
    }

    fn read_frame(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.stdout.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "park serve closed its output",
            ));
        }
        Ok(line)
    }

    /// Send one request line; return its frame and the round trip in ms.
    /// Every request this benchmark sends is answered by exactly one frame.
    pub fn request(&mut self, line: &str) -> io::Result<(String, f64)> {
        let started = Instant::now();
        let stdin = self.stdin.as_mut().expect("open until shutdown");
        stdin.write_all(line.as_bytes())?;
        stdin.write_all(b"\n")?;
        stdin.flush()?;
        let frame = self.read_frame()?;
        Ok((frame, started.elapsed().as_secs_f64() * 1e3))
    }

    /// `VmHWM` of the live process, in KiB.
    pub fn vm_hwm_kb(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()
    }

    /// Send `shutdown`, read the `bye` frame, and wait for a clean exit.
    pub fn shutdown(mut self) -> io::Result<bool> {
        let (bye, _) = self.request(r#"{"op":"shutdown"}"#)?;
        drop(self.stdin.take());
        let status = self.child.wait()?;
        self.done = true;
        Ok(bye.starts_with(r#"{"frame":"bye""#) && status.success())
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        if !self.done {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
