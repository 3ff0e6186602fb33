let nbody_src steps = Printf.sprintf {|
  // planar n-body with leapfrog integration (softened gravity)
  global n = 24;

  fn accel_axis(fptr pos, fptr acc, i) {
    var k = 0;
    for (k = 0; k < n; k = k + 1) {
      if (k != i) {
        var f dx = pos[2 * k] - pos[2 * i];
        var f dy = pos[2 * k + 1] - pos[2 * i + 1];
        var f d2 = dx * dx + dy * dy + 0.05;
        var f inv = 1.0 / (d2 * sqrt(d2));
        acc[2 * i] = acc[2 * i] + dx * inv;
        acc[2 * i + 1] = acc[2 * i + 1] + dy * inv;
      }
    }
    return 0;
  }

  fn energy(fptr pos, fptr vel) : f {
    var f e = 0.0;
    var k = 0;
    for (k = 0; k < n; k = k + 1) {
      e = e + 0.5 * (vel[2 * k] * vel[2 * k] + vel[2 * k + 1] * vel[2 * k + 1]);
    }
    return e;
  }

  fn main() {
    var fptr pos = sbrk(8 * 2 * n);
    var fptr vel = sbrk(8 * 2 * n);
    var fptr acc = sbrk(8 * 2 * n);
    rand_seed(299792);
    var k = 0;
    for (k = 0; k < 2 * n; k = k + 1) {
      pos[k] = frand() * 10.0 - 5.0;
      vel[k] = frand() * 0.2 - 0.1;
    }
    var s = 0;
    for (s = 0; s < %d; s = s + 1) {
      for (k = 0; k < 2 * n; k = k + 1) { acc[k] = 0.0; }
      for (k = 0; k < n; k = k + 1) { accel_axis(pos, acc, k); }
      for (k = 0; k < 2 * n; k = k + 1) {
        vel[k] = vel[k] + 0.001 * acc[k];
        pos[k] = pos[k] + 0.001 * vel[k];
      }
    }
    print("NBODY ke=");
    print_flt(energy(pos, vel));
    print_nl();
    return 0;
  }
|} steps

let nbody () = Dapper_clite.Parse.compile ~name:"nbody" (nbody_src 60)
