//! The `icm-server` daemon binary.
//!
//! ```text
//! icm-server [--state DIR] [--input FILE] [--socket PATH]
//!            [--seed N] [--fast] [--checkpoint-every N]
//!            [--no-sync] [--kill-after-commits N] [--quiet]
//! ```
//!
//! By default the daemon reads request lines from stdin and writes
//! reply lines to stdout. `--input` serves a scripted request file
//! instead; `--socket` (unix) accepts one connection at a time and
//! serves it. With `--state DIR`, crash safety is armed: acknowledged
//! replies are journaled write-ahead, accepted frames logged, and the
//! world checkpointed — a killed daemon restarted on the same directory
//! resumes with nothing acknowledged lost. `--no-sync` turns off the
//! fsyncs behind all three (`ServerConfig::sync`): writes stay atomic
//! and a killed process loses nothing, but power loss may. A restarted
//! daemon checkpoints and syncs as its own `--checkpoint-every` and
//! `--no-sync` say; its `--seed` and `--fast` must match the
//! checkpoint's, or the restart is refused.
//!
//! `--kill-after-commits N` aborts the process (SIGABRT, no cleanup —
//! the moral equivalent of `kill -9`) after the Nth committed reply.
//! It exists for crash drills: tests and `verify.sh` use it to prove
//! recovery instead of trusting it.

use std::io::{BufReader, Read, Write};
use std::path::PathBuf;
use std::process::ExitCode;

use icm_server::frame::{Frame, FrameReader};
use icm_server::server::Server;
use icm_server::world::ServerConfig;

struct Options {
    state: Option<PathBuf>,
    input: Option<PathBuf>,
    socket: Option<PathBuf>,
    seed: u64,
    fast: bool,
    checkpoint_every: Option<u64>,
    no_sync: bool,
    kill_after_commits: Option<u64>,
    quiet: bool,
}

fn parse_options(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut options = Options {
        state: None,
        input: None,
        socket: None,
        seed: 2016,
        fast: false,
        checkpoint_every: None,
        no_sync: false,
        kill_after_commits: None,
        quiet: false,
    };
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--state" => options.state = Some(PathBuf::from(value("--state")?)),
            "--input" => options.input = Some(PathBuf::from(value("--input")?)),
            "--socket" => options.socket = Some(PathBuf::from(value("--socket")?)),
            "--seed" => {
                options.seed = icm_json::parse_exact_u64(&value("--seed")?)
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--fast" => options.fast = true,
            "--checkpoint-every" => {
                options.checkpoint_every = Some(
                    value("--checkpoint-every")?
                        .parse()
                        .map_err(|e| format!("--checkpoint-every: {e}"))?,
                );
            }
            "--no-sync" => options.no_sync = true,
            "--kill-after-commits" => {
                options.kill_after_commits = Some(
                    value("--kill-after-commits")?
                        .parse()
                        .map_err(|e| format!("--kill-after-commits: {e}"))?,
                );
            }
            "--quiet" => options.quiet = true,
            "--help" | "-h" => {
                println!(
                    "usage: icm-server [--state DIR] [--input FILE] [--socket PATH] \
                     [--seed N] [--fast] [--checkpoint-every N] [--no-sync] \
                     [--kill-after-commits N] [--quiet]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if options.input.is_some() && options.socket.is_some() {
        return Err("--input and --socket are mutually exclusive".into());
    }
    Ok(options)
}

/// Pumps one frame stream through the server, writing reply lines to
/// `out`. Returns the number of replies written.
fn serve_stream(
    server: &mut Server,
    reader: &mut FrameReader<impl std::io::BufRead>,
    out: &mut impl Write,
    kill_after: Option<u64>,
) -> Result<u64, String> {
    let mut written = 0u64;
    loop {
        let frame = reader.next_frame().map_err(|e| e.to_string())?;
        let done = matches!(frame, Frame::Eof);
        let replies = if done {
            server.finish().map_err(|e| e.to_string())?
        } else {
            server.handle_frame(&frame).map_err(|e| e.to_string())?
        };
        for line in &replies {
            writeln!(out, "{line}").map_err(|e| e.to_string())?;
            written += 1;
            if let Some(limit) = kill_after {
                if server.committed() >= limit {
                    // Crash drill: die without unwinding, flushing, or
                    // checkpointing — recovery must cope with exactly
                    // this.
                    std::process::abort();
                }
            }
        }
        out.flush().map_err(|e| e.to_string())?;
        if done || server.shutting_down() && server.queue_len() == 0 {
            if done {
                return Ok(written);
            }
            let tail = server.finish().map_err(|e| e.to_string())?;
            for line in &tail {
                writeln!(out, "{line}").map_err(|e| e.to_string())?;
                written += 1;
            }
            out.flush().map_err(|e| e.to_string())?;
            return Ok(written);
        }
    }
}

fn run() -> Result<(), String> {
    let options = parse_options(std::env::args().skip(1))?;
    let mut config = ServerConfig::new(options.seed, options.fast);
    if let Some(every) = options.checkpoint_every {
        config.checkpoint_every = every;
    }
    if options.no_sync {
        config.sync = false;
    }
    let mut server = Server::start(config, options.state.as_deref()).map_err(|e| e.to_string())?;
    if !options.quiet {
        eprintln!(
            "icm-server: world ready (seed {}, {} apps, {} replies already committed)",
            server.config().seed,
            server.config().apps.len(),
            server.committed()
        );
    }
    let kill_after = options.kill_after_commits;
    if let Some(path) = &options.socket {
        #[cfg(unix)]
        {
            use std::os::unix::net::UnixListener;
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path).map_err(|e| e.to_string())?;
            if !options.quiet {
                eprintln!("icm-server: listening on {}", path.display());
            }
            loop {
                let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
                let mut out = stream.try_clone().map_err(|e| e.to_string())?;
                let mut reader = FrameReader::new(BufReader::new(stream));
                serve_stream(&mut server, &mut reader, &mut out, kill_after)?;
                if server.shutting_down() {
                    let _ = std::fs::remove_file(path);
                    return Ok(());
                }
            }
        }
        #[cfg(not(unix))]
        {
            return Err("--socket requires a unix platform".into());
        }
    }
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    match &options.input {
        Some(path) => {
            let file = std::fs::File::open(path).map_err(|e| e.to_string())?;
            let mut reader = FrameReader::new(BufReader::new(file));
            // A scripted input file is a durable request queue: a
            // restarted daemon skips the frames its previous life
            // already consumed (they live in the intake log and were
            // re-applied by recovery).
            for _ in 0..server.consumed_frames() {
                if matches!(reader.next_frame().map_err(|e| e.to_string())?, Frame::Eof) {
                    break;
                }
            }
            serve_stream(&mut server, &mut reader, &mut out, kill_after)?;
        }
        None => {
            let stdin = std::io::stdin();
            let mut reader = FrameReader::new(BufReader::new(LockedStdin(stdin.lock())));
            serve_stream(&mut server, &mut reader, &mut out, kill_after)?;
        }
    }
    Ok(())
}

/// Adapter so the frame reader can own a buffered stdin lock.
struct LockedStdin(std::io::StdinLock<'static>);

impl Read for LockedStdin {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.read(buf)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("icm-server: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed(value: &str) -> Result<u64, String> {
        parse_options(["--seed", value].into_iter().map(String::from)).map(|o| o.seed)
    }

    #[test]
    fn seeds_above_two_to_the_53_are_refused() {
        assert_eq!(seed("9007199254740992"), Ok(1 << 53));
        let err = seed("9007199254740993").expect_err("refused");
        assert!(err.contains("9007199254740992 (2^53)"), "{err}");
        assert!(seed("18446744073709551615").is_err());
    }
}
