//! Shared plumbing of the DBDC command-line tools.
//!
//! Three binaries are built on this library: `dbdc-cli` (the original
//! single-process driver), and the networked pair `dbdc-server` /
//! `dbdc-site` ([`netcmd`]), which run the same protocol over real TCP
//! via [`dbdc_net`].
//!
//! Commands print through [`out!`] / [`outln!`], which return a failed
//! write as an error instead of panicking, and every binary ends in
//! [`exit_code`], so a closed stdout pipe (`dbdc-cli … | head -1`) is a
//! clean exit.

pub mod args;
pub mod csv;
pub mod netcmd;
pub mod opts;

use std::process::ExitCode;

/// `print!` to stdout that propagates a failed write with `?` instead of
/// panicking. Use inside functions returning [`opts::CliResult`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        ::std::io::Write::write_fmt(&mut ::std::io::stdout(), format_args!($($arg)*))?
    };
}

/// `println!` to stdout that propagates a failed write with `?` instead
/// of panicking. Use inside functions returning [`opts::CliResult`].
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::out!("{}\n", format_args!($($arg)*))
    };
}

/// The process exit status for a command's result: success, success on
/// a closed stdout pipe (the reader has all it wanted), or the error
/// printed to stderr and a failure status.
pub fn exit_code(result: opts::CliResult) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e)
            if e.downcast_ref::<std::io::Error>()
                .is_some_and(|io| io.kind() == std::io::ErrorKind::BrokenPipe) =>
        {
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
