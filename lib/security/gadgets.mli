(** ROP gadget scanner (paper Section IV-C, Fig. 11).

    Counts gadgets in a binary's text section the way ROPgadget-style
    tools do: a gadget is a decodable instruction sequence of bounded
    length ending in a control transfer usable by an attacker ([ret],
    indirect call). On the variable-length x86-64 encoding every byte
    offset is a potential gadget start (misaligned decodes included);
    on fixed-length aarch64 only aligned offsets decode. *)

open Dapper_binary

type counts = { g_total : int  (** sequences ending in ret or an indirect call *) }

(** [scan binary] counts unique start offsets of gadgets of at most 5
    instructions. *)
val scan : Binary.t -> counts

(** Percentage reduction of [subject] relative to [baseline]
    (paper Fig. 11's metric). *)
val reduction_pct : baseline:counts -> subject:counts -> float
