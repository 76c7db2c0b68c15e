struct Toy {
    heap: BinaryHeap<std::cmp::Reverse<SimTime>>,
}
