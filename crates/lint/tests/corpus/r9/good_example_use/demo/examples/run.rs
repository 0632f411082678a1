fn main() {
    println!("{}", demo::for_the_example());
}
