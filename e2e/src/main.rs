fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(qpipe_e2e::cli::main(&args));
}
