//! The traced benchmark run: per-layer metrics, with allocation counting.

use easeml_obs::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

fn main() -> std::process::ExitCode {
    easeml_perfbench::main(true)
}
