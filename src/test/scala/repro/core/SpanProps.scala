package repro.core

import org.scalacheck.{Gen, Prop, Properties}

/** ScalaCheck properties for the span-image kernel (`Span.images`). */
object SpanProps extends Properties("Span") {

  /** A map over `0 until n`: the identity, a monotone map, or an arbitrary
    * (non-monotone) one. Its range `0 until range` may hold unused values.
    */
  private def genMap(n: Int): Gen[Array[Int]] = for {
    range <- Gen.chooseNum(1, 2 * n + 1)
    arbitrary = Gen.containerOfN[Array, Int](n, Gen.chooseNum(0, range - 1))
    f <- Gen.oneOf(Gen.const(Array.range(0, n)), arbitrary.map(_.sorted), arbitrary)
  } yield f

  /** Rows over `0 until n`, sorted or not, possibly empty, with duplicates. */
  private def genRows(n: Int): Gen[Array[Array[Int]]] =
    Gen.listOf(Gen.oneOf(
      Gen.const(Array.emptyIntArray),
      Gen.listOf(Gen.chooseNum(0, n - 1)).map(_.toArray),
      Gen.listOf(Gen.chooseNum(0, n - 1)).map(_.toArray.sorted),
    )).map(_.toArray)

  private val genCase: Gen[(Array[Array[Int]], Array[Int])] = for {
    n <- Gen.chooseNum(1, 40)
    f <- genMap(n)
    rows <- genRows(n)
  } yield (rows, f)

  property("images equals the sorted distinct image of each row") =
    Prop.forAll(genCase) { case (ms, f) =>
      Span.images(ms, f).map(_.toSeq).toSeq == ms.map(_.map(f).distinct.sorted.toSeq).toSeq
    }

  property("Images serves any sub-range of a row") =
    Prop.forAll(genCase, Gen.chooseNum(0, 1000), Gen.chooseNum(0, 1000)) { case ((ms, f), a, b) =>
      val im = new Span.Images(f)
      ms.forall { m =>
        val from = a % (m.length + 1)
        val until = from + b % (m.length - from + 1)
        im(m, from, until).toSeq == m.slice(from, until).map(f).distinct.sorted.toSeq
      }
    }
}
