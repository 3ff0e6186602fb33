(** The unified virtual address space layout.

    Dapper's modified gold linker aligns every symbol across the per-ISA
    binaries so that pointers stay valid after migration (paper
    Section III-D1). These constants define the common layout both
    backends target. *)

val page_size : int

val code_base : int64
val data_base : int64
val tls_base : int64
val heap_base : int64

(** Stacks grow downward from [stack_top]; thread [i] owns
    [stack_top - (i+1) * stack_region .. stack_top - i * stack_region). *)
val stack_top : int64
val stack_region : int
val max_threads : int

val stack_base_of_thread : int -> int64
val stack_limit_of_thread : int -> int64

(** [addr] lies in some thread's stack region, the [max_threads] regions
    below [stack_top]. *)
val in_stack_region : int64 -> bool

val tls_block_of_thread : int -> int64

(** Page number containing an address / first address of a page. *)
val page_of_addr : int64 -> int
val addr_of_page : int -> int64
val page_offset : int64 -> int
