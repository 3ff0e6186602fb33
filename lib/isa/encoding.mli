(** Per-architecture machine-code encodings.

    x86-64-sim uses a variable-length encoding (1-12 bytes per
    instruction, distinctive single-byte [ret] 0xC3 and [int3] 0xCC),
    aarch64-sim a fixed 8-byte word per instruction (large immediates are
    split by the encoder into a movz/movk pair). The two encodings are
    deliberately incompatible: code pages of one architecture do not
    decode as the other, which is what forces Dapper to replace the
    execution-context code pages during cross-ISA rewriting, and the
    variable- vs fixed-length asymmetry reproduces the classic ROP gadget
    density difference exploited in Fig. 11. *)

exception Encode_error of string

(** Number of code bytes [encode] will produce. Depends only on the
    instruction (so layout can be computed before branch targets are
    resolved). *)
val size : Arch.t -> Minstr.t -> int

(** Append the encoding of one instruction. Raises [Encode_error] if the
    instruction cannot be encoded on this architecture (e.g. load/store
    pair on x86-64, or an out-of-range field). *)
val encode : Arch.t -> Dapper_util.Bytebuf.t -> Minstr.t -> unit

(** [decode arch code off] decodes the instruction starting at byte
    [off]; returns the instruction and its encoded size, or [None] if the
    bytes do not form a valid instruction. Safe to call at arbitrary
    offsets (used by the ROP gadget scanner). *)
val decode : Arch.t -> string -> int -> (Minstr.t * int) option

(** Instruction alignment: 1 on x86-64, 8 on aarch64. *)
val alignment : Arch.t -> int

(** Encoding of [nop], used by the symbol-alignment linker pass. *)
val nop_bytes : Arch.t -> string

(** Decode an entire well-formed code region into (offset, instr) pairs.
    Raises [Encode_error] on undecodable bytes. *)
val decode_all : Arch.t -> string -> (int * Minstr.t) list
