(** CRIT — the CRIU image tool.

    Shows an image set as human-readable JSON (paper Section II). Each
    file is rendered from its record in {!Images.files}, so nothing is
    decoded: the program writes image bytes and never reads them back.
    The dumped pages are raw memory and are shown only by their length,
    as in real CRIT. *)

open Dapper_util

(** [json file] is one file's record as JSON; the pages' table is
    [{"raw_len": n}], [n] the byte length of its file. *)
val json : Images.file -> Json.t

(** [show set] renders every file of {!Images.files}, each under a
    [=== name ===] header. *)
val show : Images.image_set -> string
