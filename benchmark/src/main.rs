fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match insider_benchmark::parse_args(&args) {
        Ok((workload, opts)) => insider_benchmark::run(workload, &opts),
        Err(message) => {
            eprintln!("{message}");
            2
        }
    };
    std::process::exit(code);
}
