fn tick() -> u32 {
    demo::for_the_benchmark()
}
