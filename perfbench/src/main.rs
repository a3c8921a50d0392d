//! The untraced benchmark run: end-to-end metrics.

fn main() -> std::process::ExitCode {
    easeml_perfbench::main(false)
}
