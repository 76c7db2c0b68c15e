use std::collections::BinaryHeap;

pub struct Calendar {
    heap: BinaryHeap<std::cmp::Reverse<SimTime>>,
}
