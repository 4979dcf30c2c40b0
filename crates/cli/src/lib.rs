//! The `spt` command tables ([`help::COMMANDS`]) and the parser that
//! checks a command line against them ([`args::Args`]).

#![forbid(unsafe_code)]

/// A flag table, one row per flag — `"name" "VALUE" kind => "help
/// line"...;` — so a declaration reads like the help block it renders.
macro_rules! flags {
    ($($name:literal $value:literal $kind:expr => $($help:literal)+;)*) => {
        &[$($crate::args::Flag { name: $name, value: $value, kind: $kind, help: &[$($help),+] }),*]
    };
}

pub mod args;
pub mod help;
