package perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  private def close(a: Double, b: Double): Boolean = math.abs(a - b) < 1e-9

  test("quartiles match Python's statistics.quantiles(n=4)") {
    // Expected values printed by Python 3.11's statistics.quantiles.
    val cases = Seq(
      Seq(1.0, 2, 3, 4, 5, 6, 7, 8, 9, 10) -> (2.75, 5.5, 8.25),
      Seq(3.0, 1.0) -> (0.5, 2.0, 3.5),
      Seq(5.0, 1.0, 4.0) -> (1.0, 4.0, 5.0),
      Seq(2.0, 9.0, 4.0, 7.0, 1.0) -> (1.5, 4.0, 8.0),
    )
    for ((xs, (q1, q2, q3)) <- cases) {
      val (a, b, c) = Stats.quartiles(xs)
      assert(close(a, q1) && close(b, q2) && close(c, q3), s"$xs -> ($a, $b, $c)")
    }
    assert(Stats.quartiles(Seq(7.0)) == ((7.0, 7.0, 7.0)))
  }

  test("median of odd and even sample counts") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
  }

  test("jaccard of tuple sets") {
    assert(Stats.jaccard(Set(1, 2, 3), Set(2, 3, 4)) == 0.5)
    assert(Stats.jaccard(Set.empty[Int], Set.empty[Int]) == 1.0)
  }

  test("tuple F1 needs exact tuple equality; pair F1 scores the expanded pairs") {
    val pred = Set(Seq(1L, 2L, 3L), Seq(4L, 5L))
    val gt = Set(Seq(1L, 2L, 3L), Seq(4L, 6L))
    assert(close(F1.tuple(pred, gt), 50.0))
    assert(close(F1.pair(pred, gt), 75.0)) // 3 of 4 pairs on each side
    assert(F1.tuple(Set.empty, gt) == 0.0)
  }

  private val s = 1000000000L // one second in nanoseconds

  test("self time subtracts the union of direct children, not grandchildren") {
    val spans = Seq(
      Span(0, "layer", -1, 0, 10 * s),
      Span(1, "a", 0, 1 * s, 4 * s),
      Span(2, "b", 0, 3 * s, 6 * s), // overlaps a: together they cover 1..6
      Span(3, "grandchild", 1, 1 * s, 2 * s),
      Span(4, "c", 0, 8 * s, 12 * s), // clipped to the parent's end
    )
    assert(close(Spans.selfSeconds(spans(0), spans), 10 - 5 - 2))
    assert(close(Spans.selfSeconds(spans(1), spans), 2))
    assert(close(Spans.selfSeconds(spans(3), spans), 1))
  }

  test("merge self time is each pair merge minus the ANN call just before it") {
    val spans = Seq(
      Span(0, "core.merge.L1", -1, 0, 20 * s),
      Span(1, "ann", 0, 0, 2 * s),
      Span(2, "core.merge.pair", 0, 2 * s, 7 * s),
      Span(3, "ann", 0, 7 * s, 10 * s),
      Span(4, "core.merge.pair", 0, 10 * s, 20 * s),
      Span(5, "core.merge.L2", -1, 20 * s, 30 * s),
      Span(6, "ann", 5, 20 * s, 21 * s),
      Span(7, "core.merge.pair", 5, 21 * s, 30 * s),
    )
    assert(close(Spans.mergeSelfSeconds(spans, "core.merge.pair", "ann"), (5 - 2) + (10 - 3) + (9 - 1)))
    assert(close(Spans.total(spans, "ann"), 6))
  }

  test("tracer nests spans by call order") {
    val t = new Tracer
    t.span("outer") { t.span("inner")(()); t.span("inner")(()) }
    val spans = t.spans
    assert(spans.map(_.name) == Seq("outer", "inner", "inner"))
    assert(spans.tail.forall(_.parent == spans.head.id))
    assert(spans.head.parent == -1)
  }
}
